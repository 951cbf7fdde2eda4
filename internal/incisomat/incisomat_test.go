package incisomat

import (
	"testing"

	"turboflux/internal/csm"
	"turboflux/internal/csm/csmtest"
	"turboflux/internal/graph"
	"turboflux/internal/query"
	"turboflux/internal/stream"
)

// TestDifferentialVsNaive replays random mixed streams through IncIsoMat
// and the naive oracle under both semantics, comparing per-update positive
// and negative sets.
func TestDifferentialVsNaive(t *testing.T) {
	for _, injective := range []bool{false, true} {
		csmtest.MatchesNaive(t, injective, false, func(g0 *graph.Graph, q *query.Graph, opt csm.Options) (csm.Engine, error) {
			return New(g0, q, opt)
		})
	}
}

func TestExtractPrunesByDistanceAndLabel(t *testing.T) {
	// Query: u0(1) -0-> u1(2); diameter 1. Vertices further than 1 hop from
	// the updated edge, and vertices with irrelevant labels, are excluded.
	q := query.NewGraph(2)
	q.SetLabels(0, 1)
	q.SetLabels(1, 2)
	_ = q.AddEdge(0, 0, 1)
	g := graph.New()
	_ = g.AddVertex(0, 1)
	_ = g.AddVertex(1, 2)
	_ = g.AddVertex(2, 2) // 1 hop from v1
	_ = g.AddVertex(3, 2) // 2 hops: outside diameter
	_ = g.AddVertex(4, 9) // irrelevant label, 1 hop
	g.InsertEdge(1, 0, 2)
	g.InsertEdge(2, 0, 3)
	g.InsertEdge(1, 0, 4)
	e, err := New(g, q, csm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sub := e.extract(0, 1)
	if !sub.HasVertex(0) || !sub.HasVertex(1) || !sub.HasVertex(2) {
		t.Fatal("subgraph missing in-range vertices")
	}
	if sub.HasVertex(3) {
		t.Fatal("subgraph must exclude vertices beyond the diameter")
	}
	if sub.HasVertex(4) {
		t.Fatal("subgraph must exclude label-irrelevant vertices")
	}
}

func TestBasicCounters(t *testing.T) {
	q := query.NewGraph(2)
	_ = q.AddEdge(0, 1, 1)
	e, err := New(graph.New(), q, csm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := e.InsertEdge(5, 1, 6); n != 1 {
		t.Fatalf("insert n=%d", n)
	}
	if n, _ := e.InsertEdge(5, 1, 6); n != 0 {
		t.Fatalf("duplicate insert n=%d", n)
	}
	if n, _ := e.DeleteEdge(5, 1, 6); n != 1 {
		t.Fatalf("delete n=%d", n)
	}
	if n, _ := e.DeleteEdge(5, 1, 6); n != 0 {
		t.Fatalf("double delete n=%d", n)
	}
	if e.IntermediateSizeBytes() != 0 {
		t.Fatal("IncIsoMat maintains no state")
	}
	if _, err := e.Apply(stream.DeclareVertex(9, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(stream.Update{Op: 99}); err == nil {
		t.Fatal("unknown op must error")
	}
	if _, err := New(graph.New(), query.NewGraph(0), csm.Options{}); err == nil {
		t.Fatal("invalid query must error")
	}
}
