package turboflux

import (
	"fmt"
	"math/rand"
	"testing"
)

// hubStream is a stream in which every query label recurs all through
// every batch, around two hub vertices and a ring of spokes: label 0 runs
// hub→spoke, label 1 spoke→next spokes, label 2 spoke→hub, so the paths
// hub -0-> s -1-> s' (-2-> hub) are completed, broken and re-completed by
// neighbouring updates of one evaluation window. It strings together the
// cases the index-versioned view exists for:
//
//   - insert, then insert a neighbour completing a match: the first update
//     must not see the second's edge, though the graph already holds it;
//   - delete, then evaluate a path through the deleted edge: the later
//     update must not see it, though the graph still holds it;
//   - delete and re-insert (or insert twice, or delete twice) the same
//     edge: a second touch splits the window, no-ops stay exact;
//   - random churn over the same small edge universe.
func hubStream(rng *rand.Rand, nChurn int) []Update {
	const h1, h2, first, nSpokes = VertexID(1), VertexID(2), VertexID(3), 40
	spoke := func(k int) VertexID { return first + VertexID(((k%nSpokes)+nSpokes)%nSpokes) }
	var ups []Update
	for v := h1; v < first+nSpokes; v++ {
		ups = append(ups, DeclareVertex(v, 0))
	}
	// Build-up: distinct edges only, labels interleaved — one long window.
	for k := 0; k < nSpokes; k++ {
		ups = append(ups,
			Insert(h1, 0, spoke(k)),         // hub → s
			Insert(spoke(k), 1, spoke(k+1)), // s → s+1 completes h1→s→s+1 and h1→s-1→s→s+1's tail
			Insert(spoke(k+1), 2, h1))       // s+1 → hub closes the triangle
		if k%3 == 0 {
			ups = append(ups, Insert(h2, 0, spoke(k+1)))
		}
	}
	// Break a path, then evaluate through the broken edge, then mend it.
	for k := 0; k < nSpokes; k += 2 {
		ups = append(ups,
			Delete(spoke(k), 1, spoke(k+1)),
			Insert(h2, 0, spoke(k)),         // h2→s→s+1 must not appear: s→s+1 died
			Insert(spoke(k), 1, spoke(k+2)), // …but h2→s→s+2 and h1→s→s+2 do
			Delete(h1, 0, spoke(k)))         // and leave again, with h1→s→s+2
	}
	// Second touches of one edge: delete + re-insert, double insert,
	// double delete, each amid unrelated updates of the same labels.
	for k := 1; k < nSpokes; k += 4 {
		ups = append(ups,
			Delete(spoke(k), 1, spoke(k+1)),
			Insert(h1, 0, spoke(k)),
			Insert(spoke(k), 1, spoke(k+1)), // re-insert: splits the window
			Insert(spoke(k), 1, spoke(k+1)), // duplicate: no-op
			Delete(spoke(k+1), 2, h1),
			Delete(spoke(k+1), 2, h1), // absent: no-op
			Insert(spoke(k+1), 2, h2))
	}
	for n := 0; n < nChurn; n++ {
		k := rng.Intn(nSpokes)
		hub := h1 + VertexID(rng.Intn(2))
		var from, to VertexID
		var l Label
		switch rng.Intn(3) {
		case 0:
			from, l, to = hub, 0, spoke(k)
		case 1:
			from, l, to = spoke(k), 1, spoke(k+1+rng.Intn(3))
		default:
			from, l, to = spoke(k), 2, hub
		}
		if rng.Intn(5) < 2 {
			ups = append(ups, Delete(from, l, to))
		} else {
			ups = append(ups, Insert(from, l, to))
		}
	}
	return ups
}

// TestWindowSelfConflictEquivalence holds batch-wide evaluation windows
// against the independent per-query reference on a stream built to
// conflict with itself: every engine finds its own labels again and again
// inside one window, so each evaluation depends on the view hiding exactly
// the window's later insertions and earlier deletions. The queries are two
// members of one shared sub-pattern (the 0,1 path under both semantics), a
// triangle adding a non-tree label on top of that path, and paths repeating
// one label; batches of 1, 16 and 512 × workers 1 and 4 must all produce
// the reference's interleaved transcript, counts and final DCG sizes.
func TestWindowSelfConflictEquivalence(t *testing.T) {
	specs := []parallelQuerySpec{
		{shape: 1, anyVertex: true, elabels: [3]Label{0, 1}},
		{shape: 1, anyVertex: true, elabels: [3]Label{0, 1}, semantics: Isomorphism},
		{shape: 2, anyVertex: true, elabels: [3]Label{0, 1, 2}},
		{shape: 1, anyVertex: true, elabels: [3]Label{1, 1}},
		{shape: 1, anyVertex: true, elabels: [3]Label{1, 2}, semantics: Isomorphism},
		{shape: 0, anyVertex: true, elabels: [3]Label{1}},
	}
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ups := hubStream(rand.New(rand.NewSource(seed)), 700)
			checkEquivalence(t, specs, ups, nil, []int{1, 4}, []int{1, 16, 512}, func(cfg string, got runResult) {
				if got.mqo.SharedSubPatterns == 0 || got.mqo.SharedReplays == 0 {
					t.Fatalf("%s: no shared sub-pattern evaluated: %+v", cfg, got.mqo)
				}
				for _, q := range []string{"q0", "q2", "q3"} {
					if got.totals[q] == 0 {
						t.Fatalf("%s: %s never matched: %v", cfg, q, got.totals)
					}
				}
			})
		})
	}
}

// TestWindowBarrierCount pins what a batch costs in pool barriers: 256
// updates over 16 queries, consecutive updates sharing their label — so no
// two of them could ride one frozen graph without the versioned view — are
// one window: one barrier at workers 4, none at workers 1 (inline), and
// never one per conflict-free run of updates.
func TestWindowBarrierCount(t *testing.T) {
	const nVerts = 64
	var specs []parallelQuerySpec
	for i := 0; i < 16; i++ {
		specs = append(specs, parallelQuerySpec{
			shape:     i % 2,
			anyVertex: true,
			elabels:   [3]Label{Label(i % 4), Label((i + 1 + i/8) % 4)},
			semantics: Semantics(i / 4 % 2),
		})
	}
	var decls, batch []Update
	for v := VertexID(1); v <= nVerts; v++ {
		decls = append(decls, DeclareVertex(v, 0))
	}
	for j := 0; j < 256; j++ {
		// Distinct edges; updates 2k and 2k+1 carry the same label.
		batch = append(batch, Insert(VertexID(1+j%nVerts), Label(j/2%4), VertexID(1+(j+1+j/nVerts)%nVerts)))
	}
	for _, tc := range []struct {
		workers int
		want    uint64
	}{{4, 1}, {1, 0}} {
		m := NewMultiEngine(NewGraph())
		defer m.Close() //tf:unchecked-ok test teardown
		m.SetFanOutWorkers(tc.workers)
		for i, s := range specs {
			q, opt := s.build()
			if err := m.Register(fmt.Sprintf("q%d", i), q, opt); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.ApplyBatch(decls); err != nil {
			t.Fatal(err)
		}
		before := m.FanOutStats()
		if _, err := m.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		after := m.FanOutStats()
		if got := after.Evals - before.Evals; got < 4*256 {
			t.Fatalf("workers=%d: %d evaluations for 256 updates: the batch does not engage the queries", tc.workers, got)
		}
		if got := after.Batches - before.Batches; got != tc.want {
			t.Fatalf("workers=%d: %d pool barriers for one 256-update batch, want %d", tc.workers, got, tc.want)
		}
		if m.Graph().NumEdges() != 256 {
			t.Fatalf("workers=%d: %d edges, want 256 distinct ones", tc.workers, m.Graph().NumEdges())
		}
	}
}
