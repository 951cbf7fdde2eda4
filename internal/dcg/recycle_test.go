package dcg

import (
	"math/rand"
	"testing"

	"turboflux/internal/graph"
)

// TestSlotRecycling pins the interner contract of DESIGN.md §16: a vertex
// whose last DCG edge is nulled releases its slot, and a later re-creation
// of the same (or another) vertex reuses the freed slot instead of growing
// the cell tables.
func TestSlotRecycling(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)
	d := New(tr, everyLabel)

	const n = 32
	for i := 0; i < n; i++ {
		v := graph.VertexID(200 + i)
		d.MakeTransition(graph.NoVertex, 0, v, Implicit)
	}
	slots, free := d.slotStats()
	if free != 0 {
		t.Fatalf("free = %d with all vertices live", free)
	}
	if slots < n {
		t.Fatalf("slots = %d after %d root edges", slots, n)
	}

	// Null every root edge: each vertex loses its last DCG edge and must
	// release its slot.
	for i := 0; i < n; i++ {
		v := graph.VertexID(200 + i)
		d.MakeTransition(graph.NoVertex, 0, v, Null)
	}
	slots2, free2 := d.slotStats()
	if slots2 != slots {
		t.Fatalf("node table resized on release: %d -> %d", slots, slots2)
	}
	if free2 != n {
		t.Fatalf("free = %d after nulling %d vertices", free2, n)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}

	// Re-create the same vertices: every one must land on a recycled slot
	// — the node table must not grow.
	for i := 0; i < n; i++ {
		v := graph.VertexID(200 + i)
		d.MakeTransition(graph.NoVertex, 0, v, Implicit)
		if d.GetState(graph.NoVertex, 0, v) != Implicit {
			t.Fatalf("vertex %d lost its re-created root edge", v)
		}
	}
	slots3, free3 := d.slotStats()
	if slots3 != slots {
		t.Fatalf("node table grew on re-creation: %d -> %d slots", slots, slots3)
	}
	if free3 != 0 {
		t.Fatalf("free = %d after re-creating all vertices", free3)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSlotRecyclingAllocFree: steady-state churn of a vertex's last edge
// (release, recycle, release, ...) must not allocate.
func TestSlotRecyclingAllocFree(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)
	d := New(tr, everyLabel)
	v := graph.VertexID(300)
	cycle := func() {
		d.MakeTransition(graph.NoVertex, 0, v, Implicit)
		d.MakeTransition(graph.NoVertex, 0, v, Null)
	}
	cycle() // warm: first creation appends the slot
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("recycle cycle allocates %v per run, want 0", avg)
	}
}

// TestSnapshotSortedDeterministic pins the Snapshot contract: the slice is
// sorted by (From, QV, To) — with root edges (From = NoVertex) last — and
// two DCGs holding the same edge set return identical snapshots regardless
// of the order the edges were stored in.
func TestSnapshotSortedDeterministic(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)

	type op struct {
		from, to graph.VertexID
		u        graph.VertexID
		s        State
	}
	rng := rand.New(rand.NewSource(41))
	verts := []graph.VertexID{0, 2, 4, 5, 104, graph.NoVertex}
	states := []State{Implicit, Explicit}
	var ops []op
	for i := 0; i < 200; i++ {
		o := op{
			from: verts[rng.Intn(len(verts))],
			to:   verts[rng.Intn(len(verts)-1)],
			u:    graph.VertexID(rng.Intn(tr.Q.NumVertices())),
			s:    states[rng.Intn(len(states))],
		}
		if o.u == tr.Root {
			o.from = graph.NoVertex // root edges come only from v*_s
		}
		ops = append(ops, o)
	}
	build := func(perm []int) *DCG {
		d := New(tr, everyLabel)
		for _, i := range perm {
			d.MakeTransition(ops[i].from, ops[i].u, ops[i].to, ops[i].s)
		}
		return d
	}
	fwd := make([]int, len(ops))
	for i := range fwd {
		fwd[i] = i
	}
	a := build(fwd)
	snap := a.Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	for i := 1; i < len(snap); i++ {
		p, c := snap[i-1].Key, snap[i].Key
		if p.From > c.From ||
			(p.From == c.From && p.QV > c.QV) ||
			(p.From == c.From && p.QV == c.QV && p.To >= c.To) {
			t.Fatalf("snapshot not strictly sorted at %d: %v then %v", i, p, c)
		}
	}

	// Absolute-state transitions commute, so any permutation that keeps
	// the last write per edge key yields the same edge set. Shuffling the
	// prefix and replaying the full sequence preserves exactly that.
	perm := rng.Perm(len(ops))
	b := build(append(perm, fwd...))
	got, want := b.Snapshot(), snap
	if len(got) != len(want) {
		t.Fatalf("snapshot sizes diverge: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("snapshot entry %d diverges: %v vs %v", i, got[i], want[i])
		}
	}
}
