package harness

import (
	"fmt"
	"testing"

	"turboflux/internal/csm"
	"turboflux/internal/csm/csmtest"
	"turboflux/internal/graph"
	"turboflux/internal/query"
	"turboflux/internal/stream"
)

var allKinds = []Kind{TurboFlux, SJTree, Graphflow, IncIsoMat}

// TestEnginesMatchNaive drives every engine through NewEngine, under both
// semantics, through csmtest.MatchesNaive (SJ-Tree, which cannot delete,
// on insertions only).
func TestEnginesMatchNaive(t *testing.T) {
	for _, kind := range allKinds {
		for _, injective := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/injective=%v", kind, injective), func(t *testing.T) {
				csmtest.MatchesNaive(t, injective, kind == SJTree,
					func(g0 *graph.Graph, q *query.Graph, opt csm.Options) (csm.Engine, error) {
						return NewEngine(kind, g0, q, opt)
					})
			})
		}
	}
}

// TestCensorUnit holds every engine to one WorkBudget unit, reported
// matches: an update completing more matches than WorkBudget reports
// exactly WorkBudget of them, through OnMatch and its count, with an
// error; one completing exactly WorkBudget is not censored; and either way
// the update's stored state is kept, so the next update is exact.
func TestCensorUnit(t *testing.T) {
	// u0 -0-> u1 -1-> u2 over the fan 1 -1-> 10..14: inserting (0, 0, 1)
	// completes five matches at once.
	q := query.NewGraph(3)
	_ = q.AddEdge(0, 0, 1)
	_ = q.AddEdge(1, 1, 2)
	g0 := graph.New()
	for v := graph.VertexID(10); v < 15; v++ {
		g0.InsertEdge(1, 1, v)
	}
	for _, kind := range allKinds {
		for _, budget := range []int64{4, 5} {
			var reported int64
			eng, err := NewEngine(kind, g0, q, csm.Options{
				WorkBudget: budget,
				OnMatch:    func(bool, []graph.VertexID) { reported++ },
			})
			if err != nil {
				t.Fatal(err)
			}
			n, err := eng.Apply(stream.Insert(0, 0, 1))
			if want := min(budget, 5); n != want || reported != want || (err != nil) != (budget < 5) {
				t.Errorf("%v, WorkBudget %d, 5 matches: reported %d, returned %d, err %v",
					kind, budget, reported, n, err)
			}
			reported = 0
			if n, err := eng.Apply(stream.Insert(1, 1, 15)); n != 1 || reported != 1 || err != nil {
				t.Errorf("%v, WorkBudget %d, next update: reported %d, returned %d, err %v; want 1",
					kind, budget, reported, n, err)
			}
		}
	}
}
