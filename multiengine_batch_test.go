package turboflux

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// randomBatchStream extends randomStream with the update shapes the
// batch scheduler special-cases: mid-stream vertex declarations (fresh
// and duplicate), inserts that auto-create endpoint vertices, duplicate
// inserts of live edges and deletes of absent edges.
func randomBatchStream(rng *rand.Rand, nUpdates int) []Update {
	const nVerts = 24
	var ups []Update
	for v := VertexID(1); v <= nVerts; v++ {
		ups = append(ups, DeclareVertex(v, Label(v%2)))
	}
	next := VertexID(nVerts + 1)
	type edge struct {
		from, to VertexID
		l        Label
	}
	var inserted []edge
	for len(ups) < nUpdates {
		switch r := rng.Float64(); {
		case r < 0.08:
			// Fresh vertex declaration mid-stream: a solo update in a batch.
			ups = append(ups, DeclareVertex(next, Label(rng.Intn(2))))
			next++
		case r < 0.12:
			// Re-declaration of an existing vertex: an exact no-op.
			ups = append(ups, DeclareVertex(VertexID(1+rng.Intn(nVerts)), Label(rng.Intn(2))))
		case r < 0.18:
			// Insert auto-creating its destination vertex: another solo case.
			e := edge{from: VertexID(1 + rng.Intn(nVerts)), to: next, l: Label(rng.Intn(3))}
			next++
			inserted = append(inserted, e)
			ups = append(ups, Insert(e.from, e.l, e.to))
		case r < 0.68 || len(inserted) == 0:
			// Edge churn over every live vertex; collisions with a live edge
			// exercise the duplicate-insert no-op path.
			hi := int(next) - 1
			e := edge{
				from: VertexID(1 + rng.Intn(hi)),
				to:   VertexID(1 + rng.Intn(hi)),
				l:    Label(rng.Intn(3)),
			}
			inserted = append(inserted, e)
			ups = append(ups, Insert(e.from, e.l, e.to))
		case r < 0.78:
			// Delete of a random (often absent) edge: the no-op delete path.
			ups = append(ups, Delete(
				VertexID(1+rng.Intn(nVerts)), Label(rng.Intn(3)), VertexID(1+rng.Intn(nVerts))))
		default:
			e := inserted[rng.Intn(len(inserted))]
			ups = append(ups, Delete(e.from, e.l, e.to))
		}
	}
	return ups
}

// TestBatchEquivalence is the tentpole property: for random streams
// (including mid-stream vertex creation and no-op updates) and random
// query mixes, Apply (batch 0) and ApplyBatchFunc produce a
// byte-identical interleaved transcript — emissions tagged by query, in
// registration order within each update, with per-update boundary
// markers — to the independent per-query reference, across batch sizes
// and worker counts.
func TestBatchEquivalence(t *testing.T) {
	nUpdates := 600
	if testing.Short() {
		nUpdates = 200
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			specs := randomQuerySpecs(rng)
			ups := randomBatchStream(rng, nUpdates)
			checkEquivalence(t, specs, ups, nil, []int{1, 4, 8}, []int{0, 1, 16, 256, 4096}, nil)
		})
	}
}

// hubbedGraph is vertices 1..4 and a hub 9, all labeled 0, with label-0
// edges 2→9→1 and 4→9→3: inserting 1→2, 3→4 or, after both, 2→3 each
// completes two label-0 2-paths (twoPathQuery) but one edge (edgeQuery).
func hubbedGraph() *Graph {
	g := NewGraph()
	for _, v := range []VertexID{1, 2, 3, 4, 9} {
		g.EnsureVertex(v, 0)
	}
	g.InsertEdge(2, 0, 9)
	g.InsertEdge(9, 0, 1)
	g.InsertEdge(4, 0, 9)
	g.InsertEdge(9, 0, 3)
	return g
}

// edgeQuery is one label-0 edge between label-0 vertices.
func edgeQuery() *Query {
	q := NewQuery(2)
	q.SetLabels(0, 0)
	q.SetLabels(1, 0)
	_ = q.AddEdge(0, 0, 1)
	return q
}

// twoPathQuery is a label-0 2-path over label-0 vertices.
func twoPathQuery() *Query {
	q := NewQuery(3)
	for v := VertexID(0); v < 3; v++ {
		q.SetLabels(v, 0)
	}
	_ = q.AddEdge(0, 0, 1)
	_ = q.AddEdge(1, 0, 2)
	return q
}

// TestBatchErrorEvaluatesAll pins the batch failure semantics: a
// budget-starved query fails every update it is relevant to, the joined
// error names each failing update index and query, errors.Is still sees
// ErrWorkBudget, and the rest of the batch is applied anyway so the
// graph tracks the stream.
func TestBatchErrorEvaluatesAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := hubbedGraph()
			m := NewMultiEngine(g)
			defer m.Close() //tf:unchecked-ok test teardown
			m.SetFanOutWorkers(workers)
			if err := m.Register("ok", edgeQuery(), Options{}); err != nil {
				t.Fatal(err)
			}
			// Each edge below completes two 2-paths through the hub, one more
			// than the cap.
			if err := m.Register("starved", twoPathQuery(), Options{WorkBudget: 1}); err != nil {
				t.Fatal(err)
			}
			ups := []Update{
				DeclareVertex(5, 0),
				DeclareVertex(6, 0),
				Insert(1, 0, 2),
				Insert(3, 0, 4),
				Insert(2, 0, 3),
			}
			counts, err := m.ApplyBatch(ups)
			if err == nil {
				t.Fatal("starved query must surface its errors")
			}
			if !errors.Is(err, ErrWorkBudget) {
				t.Fatalf("err = %v, want ErrWorkBudget", err)
			}
			for _, frag := range []string{`update 2: query "starved"`, `update 3: query "starved"`, `update 4: query "starved"`} {
				if !strings.Contains(err.Error(), frag) {
					t.Fatalf("err = %v, want fragment %q", err, frag)
				}
			}
			// The healthy query evaluated every update despite the failures.
			if counts["ok"] != 3 {
				t.Fatalf("counts = %v, want ok=3", counts)
			}
			// And the graph holds all three edges.
			for _, u := range ups[2:] {
				if !m.Graph().HasEdge(u.Edge.From, u.Edge.Label, u.Edge.To) {
					t.Fatalf("edge %v missing: failed update was not applied", u.Edge)
				}
			}
		})
	}
}

// TestErrorWording pins the one wording of evaluation errors: whatever
// shape carried the failing update — a batch of one, a longer batch, an
// update that created its endpoint vertices — ApplyBatch reports
// `update i: query "name": cause`, and Apply/Insert/Delete report the same
// error without the update index (the server's -ERR text for single
// lines). Unknown ops are worded the same way. (The starved query is an
// unlabeled 2-path capped at one match, and every insertion below
// completes at least two 2-paths: the set-up graph is 1→2, 3→4, 4→3, 3→1.)
func TestErrorWording(t *testing.T) {
	starved := fmt.Sprintf("query %q: %v", "starved", ErrWorkBudget)
	at := func(i int, msg string) string { return fmt.Sprintf("update %d: %s", i, msg) }
	const unknown = "turboflux: unknown update op 99"
	for _, tc := range []struct {
		name string
		run  func(m *MultiEngine) error
		want string
	}{
		{"batch of one", func(m *MultiEngine) error {
			_, err := m.ApplyBatch([]Update{Insert(2, 0, 3)})
			return err
		}, at(0, starved)},
		{"longer batch", func(m *MultiEngine) error {
			_, err := m.ApplyBatch([]Update{Insert(2, 0, 3), Insert(4, 0, 1)})
			return err
		}, at(0, starved) + "\n" + at(1, starved)},
		{"vertex-creating updates", func(m *MultiEngine) error {
			_, err := m.ApplyBatch([]Update{Insert(5, 0, 3), Insert(3, 0, 7)})
			return err
		}, at(0, starved) + "\n" + at(1, starved)},
		{"Apply", func(m *MultiEngine) error {
			_, err := m.Apply(Insert(2, 0, 3))
			return err
		}, starved},
		{"Insert creating vertices", func(m *MultiEngine) error {
			_, err := m.Insert(5, 0, 3)
			return err
		}, starved},
		{"unknown op, Apply", func(m *MultiEngine) error {
			_, err := m.Apply(Update{Op: 99})
			return err
		}, unknown},
		{"unknown op, batch of one", func(m *MultiEngine) error {
			_, err := m.ApplyBatch([]Update{{Op: 99}})
			return err
		}, at(0, unknown)},
		{"unknown op, longer batch", func(m *MultiEngine) error {
			_, err := m.ApplyBatch([]Update{Insert(1, 0, 2), {Op: 99}})
			return err
		}, at(1, unknown)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := NewMultiEngine(NewGraph())
			defer m.Close() //tf:unchecked-ok test teardown
			// Unlabeled query vertices: auto-created endpoints are candidates,
			// so a vertex-creating insert reaches the starved engine's search.
			q := NewQuery(3)
			_ = q.AddEdge(0, 0, 1)
			_ = q.AddEdge(1, 0, 2)
			if err := m.Register("starved", q, Options{WorkBudget: 1}); err != nil {
				t.Fatal(err)
			}
			// The set-up's last two edges complete two 2-paths each.
			if _, err := m.ApplyBatch([]Update{Insert(1, 0, 2), Insert(3, 0, 4), Insert(4, 0, 3), Insert(3, 0, 1)}); !errors.Is(err, ErrWorkBudget) {
				t.Fatalf("set-up err = %v, want ErrWorkBudget", err)
			}
			err := tc.run(m)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %q, want %q", err, tc.want)
			}
		})
	}
}

// TestBatchRoutingStats checks that the routing and sharing counters mean
// one thing: the same stream applied one update at a time and in batches
// of 256, at workers 1 and 4, yields identical FanOutStats (Evals,
// Skipped) and MQOStats, so the serving STATS `fanout`/`mqo` lines read
// the same under single-line traffic, BATCH frames and any
// -fanout-workers.
func TestBatchRoutingStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	specs := []parallelQuerySpec{
		{shape: 0, elabels: [3]Label{0, 0, 0}},
		{shape: 0, elabels: [3]Label{2, 2, 2}},
		// Two members of one shape: a shared unit, so MQOStats move.
		{shape: 1, elabels: [3]Label{1, 2, 0}},
		{shape: 1, elabels: [3]Label{1, 2, 0}, semantics: Isomorphism},
	}
	ups := randomBatchStream(rng, 300)

	want := runMulti(t, 4, 0, specs, ups, nil)
	if want.fanout.Skipped == 0 {
		t.Fatal("Skipped = 0: routing never engaged on a disjoint-label mix")
	}
	if want.mqo.MaintainRuns == 0 || want.mqo.SavedEvals == 0 || want.mqo.SharedReplays == 0 {
		t.Fatalf("sharing never engaged: %+v", want.mqo)
	}
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{0, 256} {
			got := runMulti(t, workers, batch, specs, ups, nil)
			if got.fanout.Evals != want.fanout.Evals || got.fanout.Skipped != want.fanout.Skipped {
				t.Fatalf("workers=%d batch=%d: evals=%d skipped=%d, want evals=%d skipped=%d", workers, batch,
					got.fanout.Evals, got.fanout.Skipped, want.fanout.Evals, want.fanout.Skipped)
			}
			if got.mqo != want.mqo {
				t.Fatalf("workers=%d batch=%d: mqo %+v, want %+v", workers, batch, got.mqo, want.mqo)
			}
		}
	}
}

// TestBatchVertexCreationRouting pins the vertex-notification routing the
// window scheduler owns: an insert that auto-creates its endpoints sits
// mid-batch while a shared unit (two members of one shape) and a private
// query are registered whose labels the insert does not carry. Their
// engines are not evaluated for it, so the scheduler must settle the new
// vertices in the private DCG and — once, through its owner — in the
// shared one: the per-query DCG sizes checkEquivalence compares
// catch a missed notification even where lazy root settling would hide
// it from the transcript.
func TestBatchVertexCreationRouting(t *testing.T) {
	specs := []parallelQuerySpec{
		{shape: 1, anyVertex: true},                         // shared unit, label 0
		{shape: 1, anyVertex: true, semantics: Isomorphism}, // its second member
		{shape: 0, anyVertex: true, elabels: [3]Label{2}},   // private, label 2
		{shape: 0, anyVertex: true, elabels: [3]Label{1}},   // the only query the creating insert engages
	}
	ups := []Update{
		DeclareVertex(1, 0),
		DeclareVertex(2, 0),
		Insert(1, 0, 2),
		DeclareVertex(3, 0), // a declaration mid-batch: every engine notified
		Insert(7, 1, 8),     // creates 7 and 8, candidates of every (unlabeled) query vertex
		Insert(2, 0, 7),
		Insert(7, 0, 8), // 3-paths 1→2→7 and 2→7→8 through the created vertices
		Insert(8, 2, 7),
		Delete(7, 1, 8),
	}
	checkEquivalence(t, specs, ups, nil, []int{1, 4}, []int{0, 1, 256}, func(cfg string, got runResult) {
		if got.mqo.SharedSubPatterns != 1 {
			t.Fatalf("%s: unit not shared: %+v", cfg, got.mqo)
		}
		if got.transcript == "" || got.totals["q0"] == 0 {
			t.Fatalf("%s: nothing matched through the created vertices: %v", cfg, got.totals)
		}
	})
}
