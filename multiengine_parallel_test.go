package turboflux

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// parallelQuerySpec deterministically describes one random query so each
// worker configuration can rebuild an identical fresh Query.
type parallelQuerySpec struct {
	shape     int // 0: 2-path, 1: 3-path, 2: triangle, 3: star
	elabels   [3]Label
	vlabel    Label
	anyVertex bool // leave the query vertices unlabeled: every data vertex is a candidate
	semantics Semantics
	budget    int64 // Options.WorkBudget
}

func (s parallelQuerySpec) build() (*Query, Options) {
	var q *Query
	switch s.shape {
	case 0:
		q = NewQuery(2)
		_ = q.AddEdge(0, s.elabels[0], 1)
	case 1:
		q = NewQuery(3)
		_ = q.AddEdge(0, s.elabels[0], 1)
		_ = q.AddEdge(1, s.elabels[1], 2)
	case 2:
		q = NewQuery(3)
		_ = q.AddEdge(0, s.elabels[0], 1)
		_ = q.AddEdge(1, s.elabels[1], 2)
		_ = q.AddEdge(2, s.elabels[2], 0)
	default:
		q = NewQuery(4)
		_ = q.AddEdge(0, s.elabels[0], 1)
		_ = q.AddEdge(0, s.elabels[1], 2)
		_ = q.AddEdge(0, s.elabels[2], 3)
	}
	if !s.anyVertex {
		for v := VertexID(0); v < VertexID(q.NumVertices()); v++ {
			q.SetLabels(v, s.vlabel)
		}
	}
	return q, Options{Semantics: s.semantics, WorkBudget: s.budget}
}

func randomQuerySpecs(rng *rand.Rand) []parallelQuerySpec {
	n := 2 + rng.Intn(7) // 2..8 queries
	specs := make([]parallelQuerySpec, n)
	for i := range specs {
		specs[i] = parallelQuerySpec{
			shape:   rng.Intn(4),
			elabels: [3]Label{Label(rng.Intn(3)), Label(rng.Intn(3)), Label(rng.Intn(3))},
			vlabel:  Label(rng.Intn(2)),
		}
		if rng.Intn(2) == 1 {
			specs[i].semantics = Isomorphism
		}
	}
	return specs
}

// randomStream builds one update slice: vertex declarations up front
// (labels 0/1 by parity), then insert-heavy edge churn over 3 edge
// labels with deletions of previously inserted edges.
func randomStream(rng *rand.Rand, nUpdates int) []Update {
	const nVerts = 30
	var ups []Update
	for v := VertexID(1); v <= nVerts; v++ {
		ups = append(ups, DeclareVertex(v, Label(v%2)))
	}
	type edge struct {
		from, to VertexID
		l        Label
	}
	var inserted []edge
	for len(ups) < nUpdates {
		switch r := rng.Float64(); {
		case r < 0.72 || len(inserted) == 0:
			e := edge{
				from: VertexID(1 + rng.Intn(nVerts)),
				to:   VertexID(1 + rng.Intn(nVerts)),
				l:    Label(rng.Intn(3)),
			}
			inserted = append(inserted, e)
			ups = append(ups, Insert(e.from, e.l, e.to))
		default:
			e := inserted[rng.Intn(len(inserted))]
			ups = append(ups, Delete(e.from, e.l, e.to))
		}
	}
	return ups
}

// TestParallelFanOutEquivalence is the tentpole property for updates
// applied one at a time: for random streams and random query mixes,
// every worker-pool configuration driving Apply produces the transcript
// and counts of the independent per-query reference, byte for byte.
func TestParallelFanOutEquivalence(t *testing.T) {
	nUpdates := 400
	if testing.Short() {
		nUpdates = 150
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			specs := randomQuerySpecs(rng)
			ups := randomStream(rng, nUpdates)
			checkEquivalence(t, specs, ups, nil, []int{1, 2, 4, 8}, []int{0}, nil)
		})
	}
}

// TestParallelFanOutStats checks the counters the serving STATS line
// surfaces: evaluations run, evaluations skipped by label routing, and
// pool batches.
func TestParallelFanOutStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := []parallelQuerySpec{
		{shape: 0, elabels: [3]Label{0, 0, 0}}, // watches label 0
		{shape: 1, elabels: [3]Label{0, 0, 0}}, // watches label 0
		{shape: 0, elabels: [3]Label{2, 2, 2}}, // watches label 2
	}
	ups := randomStream(rng, 200)
	m := NewMultiEngine(NewGraph())
	defer m.Close() //tf:unchecked-ok test teardown
	m.SetFanOutWorkers(4)
	for i, s := range specs {
		q, opt := s.build()
		if err := m.Register(fmt.Sprintf("q%d", i), q, opt); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range ups {
		if _, err := m.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	fs := m.FanOutStats()
	if fs.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", fs.Workers)
	}
	if fs.Evals == 0 {
		t.Fatal("Evals = 0: nothing evaluated")
	}
	if fs.Skipped == 0 {
		t.Fatal("Skipped = 0: label routing never engaged on a disjoint-label mix")
	}
	// Label-0 updates have two relevant engines, so the pool must have
	// run real barriers.
	if fs.Batches == 0 || fs.Pooled == 0 {
		t.Fatalf("pool idle: batches=%d pooled=%d", fs.Batches, fs.Pooled)
	}
	if len(fs.PerWorker) != 4 {
		t.Fatalf("PerWorker = %v, want 4 entries", fs.PerWorker)
	}
}

// TestMultiEngineFanOutErrorEvaluatesAll pins the failure semantics: a
// budget-starved query mid-fan-out must not stop later engines from
// evaluating, the aggregated error wraps ErrWorkBudget, and a Delete
// still removes the edge so the graph tracks the stream.
func TestMultiEngineFanOutErrorEvaluatesAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m := NewMultiEngine(hubbedGraph())
			defer m.Close() //tf:unchecked-ok test teardown
			m.SetFanOutWorkers(workers)
			if err := m.Register("before", edgeQuery(), Options{}); err != nil {
				t.Fatal(err)
			}
			// Inserting or deleting 1→2 completes two 2-paths through the
			// hub, one more than the cap.
			if err := m.Register("starved", twoPathQuery(), Options{WorkBudget: 1}); err != nil {
				t.Fatal(err)
			}
			if err := m.Register("after", edgeQuery(), Options{}); err != nil {
				t.Fatal(err)
			}

			counts, err := m.Insert(1, 0, 2)
			if err == nil {
				t.Fatal("starved query must surface its error")
			}
			if !errors.Is(err, ErrWorkBudget) {
				t.Fatalf("err = %v, want ErrWorkBudget", err)
			}
			if !strings.Contains(err.Error(), `"starved"`) {
				t.Fatalf("err = %v, want the failing query's name", err)
			}
			// The queries registered before AND after the starved one both
			// completed: no silent DCG desync past the failure point.
			if counts["before"] != 1 || counts["after"] != 1 {
				t.Fatalf("counts = %v; engines after the failure were not evaluated", counts)
			}

			// Delete still removes the edge despite the starved engine
			// failing again, so the shared graph keeps tracking the stream.
			if _, err := m.Delete(1, 0, 2); err == nil {
				t.Fatal("starved query must also fail the delete fan-out")
			}
			if m.Graph().HasEdge(1, 0, 2) {
				t.Fatal("edge still present after Delete: graph diverged from the stream")
			}
			// Healthy engines stay in sync: re-inserting reports fresh
			// matches on both.
			counts, _ = m.Insert(1, 0, 2)
			if counts["before"] != 1 || counts["after"] != 1 {
				t.Fatalf("counts after recovery = %v", counts)
			}
		})
	}
}

// TestParallelFanOutNewVertexRouting pins the label-routing soundness
// condition: an insert that creates brand-new endpoint vertices must
// still register them as root candidates in engines the update's label
// was routed away from.
func TestParallelFanOutNewVertexRouting(t *testing.T) {
	m := NewMultiEngine(NewGraph())
	defer m.Close() //tf:unchecked-ok test teardown
	m.SetFanOutWorkers(4)
	// Two queries on disjoint labels; unlabeled query vertices so the
	// auto-created (unlabeled) endpoints are candidates.
	q0 := NewQuery(2)
	_ = q0.AddEdge(0, 0, 1)
	q1 := NewQuery(2)
	_ = q1.AddEdge(0, 1, 1)
	if err := m.Register("l0", q0, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("l1", q1, Options{}); err != nil {
		t.Fatal(err)
	}
	// This insert creates vertices 1 and 2 and is routed only to l0; l1
	// must still learn about the new vertices.
	if _, err := m.Insert(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	// If l1 missed the root-candidate bookkeeping, this label-1 edge
	// between the auto-created vertices reports no match.
	counts, err := m.Insert(1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if counts["l1"] != 1 {
		t.Fatalf("counts = %v; skipped engine missed the new vertices", counts)
	}
}
