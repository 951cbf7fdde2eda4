package turboflux

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"turboflux/internal/dcg"
)

// censorStream is a hub-biased stream for WorkBudget censoring: three hubs
// fan out to a ring of spokes (label 0), each spoke links forward to two
// others (label 1) and back to a hub (label 2), so one hub or spoke edge
// completes several path, star and triangle matches at once. After the
// build-up it mixes high-fanout inserts and deletes on the hubs, the delete
// and re-insert of one hub edge back to back (the second touch splits the
// window), and vertex creation mid-batch: inserts auto-creating a vertex
// off a hub, and fresh declarations linked at once.
func censorStream(rng *rand.Rand, nChurn int) []Update {
	const nHubs, first, nSpokes = 3, VertexID(4), 24
	spoke := func(k int) VertexID { return first + VertexID(k%nSpokes) }
	hub := func() VertexID { return VertexID(1 + rng.Intn(nHubs)) }
	var ups []Update
	for v := VertexID(1); v < first+nSpokes; v++ {
		ups = append(ups, DeclareVertex(v, 0))
	}
	for k := 0; k < nSpokes; k++ {
		for h := VertexID(1); h <= nHubs; h++ {
			ups = append(ups, Insert(h, 0, spoke(k)))
		}
		ups = append(ups,
			Insert(spoke(k), 1, spoke(k+1)),
			Insert(spoke(k), 1, spoke(k+3)),
			Insert(spoke(k+1), 2, VertexID(1+k%nHubs)))
	}
	next := first + nSpokes // the next vertex to create
	edge := func(from VertexID, l Label, to VertexID) Update {
		if rng.Intn(5) < 2 {
			return Delete(from, l, to)
		}
		return Insert(from, l, to)
	}
	for n := 0; n < nChurn; n++ {
		k := rng.Intn(nSpokes)
		switch r := rng.Intn(10); {
		case r < 3:
			ups = append(ups, edge(hub(), 0, spoke(k)))
		case r < 5:
			ups = append(ups, edge(spoke(k), 1, spoke(k+1+rng.Intn(4))))
		case r < 6:
			ups = append(ups, edge(spoke(k), 2, hub()))
		case r < 8:
			h := hub()
			ups = append(ups, Delete(h, 0, spoke(k)), Insert(h, 0, spoke(k)))
		case r < 9:
			ups = append(ups, Insert(hub(), 0, next))
			next++
		default:
			ups = append(ups, DeclareVertex(next, 0), Insert(next, 1, spoke(k)))
			next++
		}
	}
	return ups
}

// censorSpecs mixes budgeted and unbudgeted members in each shape: the
// 0,1 path owned by an unbudgeted query with two budgeted followers, the
// 1,1,2 star owned by a budgeted query with an unbudgeted follower, and a
// budgeted triangle and 1,1 path.
func censorSpecs() []parallelQuerySpec {
	return []parallelQuerySpec{
		{shape: 1, anyVertex: true, elabels: [3]Label{0, 1}},
		{shape: 1, anyVertex: true, elabels: [3]Label{0, 1}, budget: 1},
		{shape: 1, anyVertex: true, elabels: [3]Label{0, 1}, budget: 2, semantics: Isomorphism},
		{shape: 3, anyVertex: true, elabels: [3]Label{1, 1, 2}, budget: 3},
		{shape: 3, anyVertex: true, elabels: [3]Label{1, 1, 2}},
		{shape: 2, anyVertex: true, elabels: [3]Label{0, 1, 2}, budget: 1},
		{shape: 1, anyVertex: true, elabels: [3]Label{1, 1}, budget: 2},
	}
}

// checkOwnerFixpoints fails unless every shape owner's DCG in m is exactly
// the declarative fixpoint of m's graph: censoring stopped no maintenance.
func checkOwnerFixpoints(t *testing.T, cfg string, m *MultiEngine) {
	t.Helper()
	for _, s := range m.order {
		if s != s.sub.members[0] {
			continue
		}
		spec := dcg.ComputeSpec(m.g, s.eng.Tree())
		snap := s.eng.DCG().SnapshotMap()
		if len(snap) != len(spec) {
			t.Fatalf("%s owner %s: DCG has %d edges, the fixpoint %d", cfg, s.name, len(snap), len(spec))
		}
		for k, st := range spec {
			if snap[k] != st {
				t.Fatalf("%s owner %s: DCG[%v]=%v, the fixpoint %v", cfg, s.name, k, snap[k], st)
			}
		}
	}
}

// TestInitialMatchesUncappedOwner: a WorkBudget far below a graph's initial
// match count caps neither the registration of a shape's owner nor the
// InitialMatches of owner and follower.
func TestInitialMatchesUncappedOwner(t *testing.T) {
	g := NewGraph()
	for i := VertexID(1); i <= 50; i++ {
		g.InsertEdge(0, 0, i)
		g.InsertEdge(i, 1, 100+i)
	}
	m := NewMultiEngine(g)
	defer m.Close() //tf:unchecked-ok test teardown
	path := parallelQuerySpec{shape: 1, anyVertex: true, elabels: [3]Label{0, 1}}
	for _, name := range []string{"owner", "follower"} {
		q, opt := path.build()
		opt.WorkBudget = 10
		if err := m.Register(name, q, opt); err != nil {
			t.Fatalf("%s: registration censored: %v", name, err)
		}
	}
	if st := m.MQOStats(); st.SharedSubPatterns != 1 {
		t.Fatalf("budgeted queries did not share one shape: %+v", st)
	}
	if init := m.InitialMatches(); init["owner"] != 50 || init["follower"] != 50 {
		t.Fatalf("InitialMatches = %v, want all 50 for both", init)
	}
}

// TestCensorEquivalence holds WorkBudget censoring to the per-query
// reference on a hub-biased stream: a budgeted query reports the same
// first matches, and is censored on the same updates, whether it owns its
// shape's DCG, follows an unbudgeted owner or runs alone, at every batch
// length and worker count. Censoring never stops maintenance: every
// owner's final DCG is the fixpoint of the graph, and every query's DCG is
// as large as in the same run with no budget at all.
func TestCensorEquivalence(t *testing.T) {
	seeds, nChurn := int64(8), 300
	if testing.Short() {
		seeds, nChurn = 3, 150
	}
	workers, batches := []int{1, 4}, []int{0, 1, 7, 256}
	censored := 0
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ups := censorStream(rand.New(rand.NewSource(seed)), nChurn)
			specs := censorSpecs()
			uncapped := append([]parallelQuerySpec(nil), specs...)
			for i := range uncapped {
				uncapped[i].budget = 0
			}
			full := runReference(t, uncapped, ups, nil)
			want := checkEquivalence(t, specs, ups, nil, workers, batches, func(cfg string, got runResult) {
				checkOwnerFixpoints(t, cfg, got.m)
				for name, n := range full.dcgEdges {
					if got.dcgEdges[name] != n {
						t.Fatalf("%s query %s: %d DCG edges, %d with no budget", cfg, name, got.dcgEdges[name], n)
					}
				}
			})
			censored += len(want.censored)
			for i, s := range specs {
				if s.budget == 0 {
					continue
				}
				alone := checkEquivalence(t, specs[i:i+1], ups, nil, workers, batches, func(cfg string, got runResult) {
					checkOwnerFixpoints(t, cfg, got.m)
				})
				// Alone the query is q0; in the mix it is q<i>.
				inMix := map[string]bool{}
				prefix := fmt.Sprintf("q%d@", i)
				for k := range want.censored {
					if rest, ok := strings.CutPrefix(k, prefix); ok {
						inMix["q0@"+rest] = true
					}
				}
				if !maps.Equal(alone.censored, inMix) {
					t.Fatalf("q%d censored on %d updates alone, on %d in the shared mix", i, len(alone.censored), len(inMix))
				}
			}
		})
	}
	if !t.Failed() && censored < 100 {
		t.Fatalf("only %d evaluations censored over %d seeds: the stream does not exercise the cap", censored, seeds)
	}
}
