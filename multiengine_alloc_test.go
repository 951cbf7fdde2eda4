//go:build !race

package turboflux

import (
	"testing"
)

// allocGuardSetup builds a MultiEngine whose hot paths can run with zero
// coordinator allocations: two queries sharing edge label 0 (so every
// update pools both engines), vertex-label constraints no data vertex
// satisfies (so evaluation never matches and no counts map is built),
// and a ring of resident label-0 edges keeping every adjacency map entry
// non-empty (so the churn edges never trigger entry-drop/recreate or
// compaction allocations).
func allocGuardSetup(t *testing.T, workers int) (*MultiEngine, []Update, []Update) {
	t.Helper()
	const nVerts = 20
	g := NewGraph()
	for v := VertexID(1); v <= nVerts; v++ {
		g.EnsureVertex(v, 0)
	}
	for v := VertexID(1); v <= nVerts; v++ {
		if !g.InsertEdge(v, 0, v%nVerts+1) {
			t.Fatalf("resident edge %d", v)
		}
	}
	m := NewMultiEngine(g)
	t.Cleanup(func() { m.Close() }) //tf:unchecked-ok test teardown
	m.SetFanOutWorkers(workers)
	mkQ := func(rev bool) *Query {
		q := NewQuery(2)
		// Vertex label 9 is unused by the data, so the queries are
		// relevant to every label-0 update but can never match.
		q.SetLabels(0, 9)
		q.SetLabels(1, 9)
		from, to := VertexID(0), VertexID(1)
		if rev {
			from, to = 1, 0
		}
		if err := q.AddEdge(from, 0, to); err != nil {
			t.Fatal(err)
		}
		return q
	}
	if err := m.Register("fwd", mkQ(false), Options{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("rev", mkQ(true), Options{}); err != nil {
		t.Fatal(err)
	}
	var ins, dels []Update
	for i := 0; i < 8; i++ {
		from := VertexID(1 + i)
		to := VertexID(3 + i)
		ins = append(ins, Insert(from, 0, to))
		dels = append(dels, Delete(from, 0, to))
	}
	return m, ins, dels
}

// TestApplySingleRunAllocs guards the run of one: once warm, an
// insert/delete cycle applied one update at a time — each a one-update
// batch through the run scheduler, both engines pooled — must not
// allocate on the coordinator side at all.
func TestApplySingleRunAllocs(t *testing.T) {
	m, ins, dels := allocGuardSetup(t, 4)
	cycle := func() {
		for _, u := range ins {
			if counts, err := m.Apply(u); err != nil || counts != nil {
				t.Fatalf("insert: counts=%v err=%v", counts, err)
			}
		}
		for _, u := range dels {
			if counts, err := m.Apply(u); err != nil || counts != nil {
				t.Fatalf("delete: counts=%v err=%v", counts, err)
			}
		}
	}
	cycle() // warm the pool, scratch slices and adjacency capacities
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("single-update runs: %v allocs per insert/delete cycle, want 0", avg)
	}
}

// TestApplyBatchPathAllocs guards the batch pipeline: once the run
// scheduler's scratch (engaged bitset, run-edge map, pair/slot slices)
// is warm, applying whole batches must not allocate on the coordinator
// side — the property the per-batch scratch reuse exists for.
func TestApplyBatchPathAllocs(t *testing.T) {
	m, ins, dels := allocGuardSetup(t, 4)
	cycle := func() {
		if counts, err := m.ApplyBatch(ins); err != nil || counts != nil {
			t.Fatalf("insert batch: counts=%v err=%v", counts, err)
		}
		if counts, err := m.ApplyBatch(dels); err != nil || counts != nil {
			t.Fatalf("delete batch: counts=%v err=%v", counts, err)
		}
	}
	cycle() // warm scratch structures
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("batch path: %v allocs per batch pair, want 0", avg)
	}
}

// TestApplyBatchBoundaryAllocs extends the batch guard to the boundary
// hook the server uses for sequence stamping: invoking it per update
// must not force any per-update allocation either.
func TestApplyBatchBoundaryAllocs(t *testing.T) {
	m, ins, dels := allocGuardSetup(t, 4)
	var seq uint64
	boundary := func(int) { seq++ }
	cycle := func() {
		if _, err := m.ApplyBatchFunc(ins, boundary); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ApplyBatchFunc(dels, boundary); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("batch path with boundary hook: %v allocs per batch pair, want 0", avg)
	}
}
