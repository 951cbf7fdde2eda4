// Package csmtest holds the differential check every csm.Engine is held
// to: random queries and mixed update streams, replayed through the engine
// and the naive recompute oracle, compared update by update.
package csmtest

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"turboflux/internal/csm"
	"turboflux/internal/graph"
	"turboflux/internal/matcher"
	"turboflux/internal/naive"
	"turboflux/internal/query"
	"turboflux/internal/stream"
)

// NewFunc builds the engine under test over g0 (which it may keep) with opt.
type NewFunc func(g0 *graph.Graph, q *query.Graph, opt csm.Options) (csm.Engine, error)

// RandQuery generates a small connected query: a random tree over n
// vertices plus up to extra random edges, with random (possibly empty)
// vertex label constraints.
func RandQuery(rng *rand.Rand, n, extra int) *query.Graph {
	q := query.NewGraph(n)
	for u := 0; u < n; u++ {
		if rng.Intn(3) > 0 {
			q.SetLabels(graph.VertexID(u), graph.Label(rng.Intn(3)))
		}
	}
	for u := 1; u < n; u++ {
		p := graph.VertexID(rng.Intn(u))
		l := graph.Label(rng.Intn(3))
		if rng.Intn(2) == 0 {
			_ = q.AddEdge(p, l, graph.VertexID(u))
		} else {
			_ = q.AddEdge(graph.VertexID(u), l, p)
		}
	}
	for i := 0; i < extra; i++ {
		_ = q.AddEdge(graph.VertexID(rng.Intn(n)), graph.Label(rng.Intn(3)), graph.VertexID(rng.Intn(n)))
	}
	return q
}

// RandInputs returns a random labeled graph on 10 vertices and a stream of
// steps updates over it; unless insertOnly, a third of them delete a live
// edge.
func RandInputs(rng *rand.Rand, steps int, insertOnly bool) (*graph.Graph, []stream.Update) {
	const nv = 10
	randEdge := func() graph.Edge {
		return graph.Edge{
			From:  graph.VertexID(rng.Intn(nv)),
			Label: graph.Label(rng.Intn(3)),
			To:    graph.VertexID(rng.Intn(nv)),
		}
	}
	g0 := graph.New()
	for v := 0; v < nv; v++ {
		_ = g0.AddVertex(graph.VertexID(v), graph.Label(rng.Intn(3)))
	}
	for i := 0; i < 10; i++ {
		e := randEdge()
		g0.InsertEdge(e.From, e.Label, e.To)
	}
	var live []graph.Edge
	g0.ForEachEdge(func(e graph.Edge) { live = append(live, e) })
	ups := make([]stream.Update, 0, steps)
	for len(ups) < steps {
		if !insertOnly && len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			e := live[i]
			live = slices.Delete(live, i, i+1)
			ups = append(ups, stream.Delete(e.From, e.Label, e.To))
			continue
		}
		e := randEdge()
		if !slices.Contains(live, e) {
			live = append(live, e)
		}
		ups = append(ups, stream.Insert(e.From, e.Label, e.To))
	}
	return g0, ups
}

// MatchesNaive replays 30 random streams of 60 updates (insertions only if
// insertOnly) through the engine newEngine builds and through the naive
// oracle, under isomorphism if injective and homomorphism otherwise, and
// holds each update's reported positive and negative match sets to the
// oracle's, with no match reported twice.
func MatchesNaive(t *testing.T, injective, insertOnly bool, newEngine NewFunc) {
	t.Helper()
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := RandQuery(rng, 3+rng.Intn(3), rng.Intn(3))
		g0, ups := RandInputs(rng, 60, insertOnly)
		var pos, neg map[string]bool
		eng, err := newEngine(g0.Clone(), q, csm.Options{
			Injective: injective,
			OnMatch: func(positive bool, m []graph.VertexID) {
				set := neg
				if positive {
					set = pos
				}
				k := matcher.Key(m)
				if set[k] {
					t.Errorf("seed %d: match %s reported twice", seed, k)
				}
				set[k] = true
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := naive.New(g0.Clone(), q, injective)
		if err != nil {
			t.Fatal(err)
		}
		for step, up := range ups {
			pos, neg = map[string]bool{}, map[string]bool{}
			if _, err := eng.Apply(up); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			wantPos, wantNeg, err := oracle.Apply(up)
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(pos, wantPos) || !maps.Equal(neg, wantNeg) {
				t.Fatalf("seed %d step %d (%v %v): got +%v -%v, want +%v -%v\nquery %v",
					seed, step, up.Op, up.Edge, pos, neg, wantPos, wantNeg, q)
			}
		}
	}
}
