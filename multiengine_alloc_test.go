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
// compaction allocations). With durable set, the same graph is the
// bootstrap of an engine opened with OpenDurableMulti, so every update is
// journaled too.
func allocGuardSetup(t *testing.T, workers int, durable bool) (*MultiEngine, []Update, []Update) {
	t.Helper()
	const nVerts = 20
	var g0 []Update
	for v := VertexID(1); v <= nVerts; v++ {
		g0 = append(g0, DeclareVertex(v, 0))
	}
	for v := VertexID(1); v <= nVerts; v++ {
		g0 = append(g0, Insert(v, 0, v%nVerts+1))
	}
	var m *MultiEngine
	if durable {
		var err error
		if m, err = OpenDurableMulti(t.TempDir(), DurableMultiOptions{Fsync: "none", Bootstrap: g0}); err != nil {
			t.Fatal(err)
		}
	} else {
		g := NewGraph()
		for _, u := range g0 {
			u.Apply(g)
		}
		m = NewMultiEngine(g)
	}
	if m.Graph().NumEdges() != nVerts {
		t.Fatalf("%d resident edges, want %d", m.Graph().NumEdges(), nVerts)
	}
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

// allocGuardInputs names the engines the single-run and batch guards run
// on: in memory, and journaling (the journal's append path allocates
// nothing per record, DESIGN.md §9).
var allocGuardInputs = []struct {
	name    string
	durable bool
}{{"memory", false}, {"durable", true}}

// TestApplySingleRunAllocs guards the window of one: once warm, an
// insert/delete cycle applied one update at a time — each a one-update
// batch through the window scheduler, both engines pooled — must not
// allocate on the coordinator side at all.
func TestApplySingleRunAllocs(t *testing.T) {
	for _, in := range allocGuardInputs {
		m, ins, dels := allocGuardSetup(t, 4, in.durable)
		cycle := func() {
			for _, u := range ins {
				if counts, err := m.Apply(u); err != nil || counts != nil {
					t.Fatalf("%s insert: counts=%v err=%v", in.name, counts, err)
				}
			}
			for _, u := range dels {
				if counts, err := m.Apply(u); err != nil || counts != nil {
					t.Fatalf("%s delete: counts=%v err=%v", in.name, counts, err)
				}
			}
		}
		cycle() // warm the pool, scratch slices and adjacency capacities
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Errorf("%s single-update runs: %v allocs per insert/delete cycle, want 0", in.name, avg)
		}
	}
}

// TestApplyBatchPathAllocs guards the batch pipeline: once the window
// scheduler's scratch (window table, engagement, unit and index lists)
// is warm, applying whole batches must not allocate on the coordinator
// side — the property the per-batch scratch reuse exists for.
func TestApplyBatchPathAllocs(t *testing.T) {
	for _, in := range allocGuardInputs {
		m, ins, dels := allocGuardSetup(t, 4, in.durable)
		cycle := func() {
			if counts, err := m.ApplyBatch(ins); err != nil || counts != nil {
				t.Fatalf("%s insert batch: counts=%v err=%v", in.name, counts, err)
			}
			if counts, err := m.ApplyBatch(dels); err != nil || counts != nil {
				t.Fatalf("%s delete batch: counts=%v err=%v", in.name, counts, err)
			}
		}
		cycle() // warm scratch structures
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Errorf("%s batch path: %v allocs per batch pair, want 0", in.name, avg)
		}
	}
}

// TestApplyBatchBoundaryAllocs extends the batch guard to the boundary
// hook the server uses for sequence stamping: invoking it per update
// must not force any per-update allocation either.
func TestApplyBatchBoundaryAllocs(t *testing.T) {
	m, ins, dels := allocGuardSetup(t, 4, false)
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

// TestApplyBatchDistinctEdgesAllocs streams more than 32 768 distinct
// edges no query mentions, in batches of 256 (128 inserts, then their
// deletes): such updates engage no engine, each half of a batch is one
// window (a delete is its edge's second touch) and the window table holds
// 128 entries at a time. The table must reach its working size during
// warm-up and then never allocate — an ever-growing table, or one thrown
// away and regrown every so many edges,
// allocates here where the eight recycled edges of
// TestApplyBatchPathAllocs never get that far.
func TestApplyBatchDistinctEdgesAllocs(t *testing.T) {
	const nVerts, half = 512, 128
	g := NewGraph()
	for v := VertexID(1); v <= nVerts; v++ {
		g.EnsureVertex(v, 0)
	}
	// Resident rings under both labels keep every adjacency bucket
	// non-empty, so the churn edges (one in, one out per vertex at a time)
	// fit the buckets' spare capacity.
	for v := VertexID(1); v <= nVerts; v++ {
		if !g.InsertEdge(v, 0, v%nVerts+1) || !g.InsertEdge(v, 1, v%nVerts+1) {
			t.Fatalf("resident edges of %d", v)
		}
	}
	m := NewMultiEngine(g)
	t.Cleanup(func() { m.Close() }) //tf:unchecked-ok test teardown
	m.SetFanOutWorkers(4)
	q := NewQuery(2)
	if err := q.AddEdge(0, 0, 1); err != nil { // mentions label 0 only
		t.Fatal(err)
	}
	if err := m.Register("q", q, Options{}); err != nil {
		t.Fatal(err)
	}
	batch := make([]Update, 2*half)
	round := 0
	next := func() {
		// Round r pairs vertex i with the vertex 2+r places on: distinct
		// from every other round and from the ring (1 place on).
		for i := 0; i < half; i++ {
			from, to := VertexID(1+i), VertexID(1+(i+2+round)%nVerts)
			batch[i], batch[half+i] = Insert(from, 1, to), Delete(from, 1, to)
		}
		round++
		if counts, err := m.ApplyBatch(batch); err != nil || counts != nil {
			t.Fatalf("round %d: counts=%v err=%v", round, counts, err)
		}
	}
	next()             // warm scratch structures
	const rounds = 300 // x 128 = 38 400 distinct edges; 2+rounds < nVerts keeps them distinct
	if avg := testing.AllocsPerRun(rounds, next); avg != 0 {
		t.Fatalf("distinct-edge batches: %v allocs per batch, want 0", avg)
	}
	if g.NumEdges() != 2*nVerts {
		t.Fatalf("%d edges left, want the %d resident ones", g.NumEdges(), 2*nVerts)
	}
}

// TestApplyBatchOneEngineWindowAllocs is the window-sized guard: a batch of
// 256 distinct label-0 edges is one window that engages each engine 256
// times, so the per-slot and per-unit index lists, the outcome cells, the
// emission-buffer segment marks, the engagement list, the window table and
// the claim loops all reach a batch's length — and must all be recycled by
// the next one.
func TestApplyBatchOneEngineWindowAllocs(t *testing.T) {
	const nVerts, n = 512, 256
	g := NewGraph()
	for v := VertexID(1); v <= nVerts; v++ {
		g.EnsureVertex(v, 0)
	}
	for v := VertexID(1); v <= nVerts; v++ {
		if !g.InsertEdge(v, 0, v%nVerts+1) { // resident ring: no bucket ever empties
			t.Fatalf("resident edge of %d", v)
		}
	}
	m := NewMultiEngine(g)
	t.Cleanup(func() { m.Close() }) //tf:unchecked-ok test teardown
	m.SetFanOutWorkers(4)
	var emitted int
	for name, size := range map[string]int{"path": 3, "hop": 2} {
		// Vertex label 9 is unused by the data: relevant to every update,
		// never matching. The second query makes a second unit, so the
		// window crosses the pool.
		q := NewQuery(size)
		for v := 0; v < q.NumVertices(); v++ {
			q.SetLabels(VertexID(v), 9)
		}
		for v := 1; v < q.NumVertices(); v++ {
			if err := q.AddEdge(VertexID(v-1), 0, VertexID(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Register(name, q, Options{OnMatch: func(bool, []VertexID) { emitted++ }}); err != nil {
			t.Fatal(err)
		}
	}
	ins, dels := make([]Update, n), make([]Update, n)
	for i := range ins {
		from, to := VertexID(1+i), VertexID(1+(i+2)%nVerts)
		ins[i], dels[i] = Insert(from, 0, to), Delete(from, 0, to)
	}
	cycle := func() {
		if counts, err := m.ApplyBatch(ins); err != nil || counts != nil {
			t.Fatalf("insert window: counts=%v err=%v", counts, err)
		}
		if counts, err := m.ApplyBatch(dels); err != nil || counts != nil {
			t.Fatalf("delete window: counts=%v err=%v", counts, err)
		}
	}
	before := m.FanOutStats()
	cycle() // warm the lists, the table and the adjacency capacities
	if fs := m.FanOutStats(); fs.Batches-before.Batches != 2 || fs.Evals-before.Evals != 4*n {
		t.Fatalf("warm-up: %d barriers, %d evaluations; want 2 windows engaging both queries %d times each",
			fs.Batches-before.Batches, fs.Evals-before.Evals, 2*n)
	}
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("256-update windows: %v allocs per batch pair, want 0", avg)
	}
	if emitted != 0 {
		t.Fatalf("%d emissions from queries no vertex can match", emitted)
	}
}

// TestMQOTwinAllocs guards twin delivery (DESIGN.md §17, Twins): a twin
// takes its source's count and replays its source's buffered emissions,
// so in steady state it adds no allocation to a window — a cycle over a
// source and its twin allocates exactly what the cycle over the source
// alone does (the counts map an update with matches returns) — and it
// receives every match its source does.
func TestMQOTwinAllocs(t *testing.T) {
	const nVerts = 20
	measure := func(twin bool) (allocs float64, delivered map[string]int) {
		g := NewGraph()
		for v := VertexID(1); v <= nVerts; v++ {
			g.EnsureVertex(v, 0)
		}
		for v := VertexID(1); v <= nVerts; v++ {
			g.InsertEdge(v, 0, v%nVerts+1) // resident ring: no bucket ever empties
		}
		m := NewMultiEngine(g)
		t.Cleanup(func() { m.Close() }) //tf:unchecked-ok test teardown
		m.SetFanOutWorkers(4)
		delivered = map[string]int{}
		names := []string{"src"}
		if twin {
			names = append(names, "twin")
		}
		for _, name := range names {
			q := NewQuery(3)
			_ = q.AddEdge(0, 0, 1)
			_ = q.AddEdge(1, 0, 2)
			if err := m.Register(name, q, Options{OnMatch: func(bool, []VertexID) { delivered[name]++ }}); err != nil {
				t.Fatal(err)
			}
		}
		if twin && m.TwinOf("twin") != "src" {
			t.Fatalf("TwinOf(twin) = %q, want src", m.TwinOf("twin"))
		}
		var ins, dels []Update
		for i := VertexID(0); i < 8; i++ {
			ins = append(ins, Insert(1+i, 0, 3+i))
			dels = append(dels, Delete(1+i, 0, 3+i))
		}
		cycle := func() {
			for _, b := range [][]Update{ins, dels} {
				if counts, err := m.ApplyBatch(b); err != nil || len(counts) != len(names) {
					t.Fatalf("counts=%v err=%v", counts, err)
				}
			}
		}
		cycle() // warm the buffers, lists and adjacency capacities
		cycle()
		return testing.AllocsPerRun(100, cycle), delivered
	}
	alone, _ := measure(false)
	paired, delivered := measure(true)
	if paired != alone {
		t.Fatalf("a twin adds allocations: %.2f per insert/delete cycle with it, %.2f without", paired, alone)
	}
	if delivered["src"] == 0 || delivered["twin"] != delivered["src"] {
		t.Fatalf("delivered %v: the twin must receive each of its source's matches", delivered)
	}
	t.Logf("%.2f allocations per cycle with or without the twin", alone)
}
