package graphflow

import (
	"testing"

	"turboflux/internal/csm"
	"turboflux/internal/csm/csmtest"
	"turboflux/internal/graph"
	"turboflux/internal/query"
	"turboflux/internal/stream"
)

// TestDifferentialVsNaive replays random mixed streams through Graphflow
// and the naive oracle under both semantics, comparing per-update positive
// and negative sets.
func TestDifferentialVsNaive(t *testing.T) {
	for _, injective := range []bool{false, true} {
		csmtest.MatchesNaive(t, injective, false, func(g0 *graph.Graph, q *query.Graph, opt csm.Options) (csm.Engine, error) {
			return New(g0, q, opt)
		})
	}
}

func TestStatelessAndCounters(t *testing.T) {
	q := query.NewGraph(2)
	_ = q.AddEdge(0, 1, 1)
	e, err := New(graph.New(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.IntermediateSizeBytes() != 0 {
		t.Fatal("Graphflow must report zero intermediate state")
	}
	if n, _ := e.InsertEdge(1, 1, 2); n != 1 {
		t.Fatalf("insert n=%d", n)
	}
	if n, _ := e.InsertEdge(1, 1, 2); n != 0 {
		t.Fatalf("duplicate insert n=%d", n)
	}
	if n, _ := e.DeleteEdge(1, 1, 2); n != 1 {
		t.Fatalf("delete n=%d", n)
	}
	if n, _ := e.DeleteEdge(1, 1, 2); n != 0 {
		t.Fatalf("double delete n=%d", n)
	}
	if _, err := e.Apply(stream.DeclareVertex(9, 3)); err != nil {
		t.Fatal(err)
	}
	if !e.Graph().HasVertex(9) {
		t.Fatal("vertex declaration ignored")
	}
	if _, err := e.Apply(stream.Update{Op: 99}); err == nil {
		t.Fatal("unknown op must error")
	}
	if _, err := New(graph.New(), query.NewGraph(0), Options{}); err == nil {
		t.Fatal("invalid query must error")
	}
}
