package dcg

import (
	"slices"
	"testing"

	"turboflux/internal/graph"
)

// TestBlockLayout pins the label-sized block layout over a graph whose
// vertices carry different label sets: a block holds exactly the roles its
// labels allow, a write to any other role is refused, a freed block is
// reused only by a vertex of its own class and without allocating, and
// Validate rejects a corrupted block header.
func TestBlockLayout(t *testing.T) {
	// paperQuery: u0(A) -> u1(B) -> {u2(C), u3(C)}, u3 -> u4(D).
	tr := paperTree(t, paperData(t))
	g := graph.New()
	for _, v := range []struct {
		id     graph.VertexID
		labels []graph.Label
	}{
		{10, []graph.Label{lA}}, {11, []graph.Label{lA}},
		{20, []graph.Label{lB}}, {21, []graph.Label{lB}},
		{30, []graph.Label{lC}}, {31, []graph.Label{lC}},
		{40, []graph.Label{lD}}, {41, []graph.Label{lD}}, {42, []graph.Label{lD}},
		{50, []graph.Label{lA, lC}},
	} {
		if err := g.AddVertex(v.id, v.labels...); err != nil {
			t.Fatal(err)
		}
	}
	d := New(tr, g)
	step := func(from, u, to graph.VertexID, s State) {
		t.Helper()
		d.MakeTransition(from, u, to, s)
		if err := d.Validate(); err != nil {
			t.Fatalf("(%d, u%d, %d) -> %v: %v", from, u, to, s, err)
		}
	}
	step(graph.NoVertex, 0, 10, Implicit)
	step(10, 1, 20, Explicit)
	step(20, 2, 30, Explicit)
	step(30, 4, 40, Explicit)
	step(graph.NoVertex, 0, 50, Explicit)
	step(50, 1, 21, Implicit)

	// An in-cell for u needs L(u) ⊆ L(v); an out-cell for u needs
	// L(P(u)) ⊆ L(v); the root has no out-cell.
	width := 0
	for _, want := range []struct {
		v       graph.VertexID
		in, out []int
	}{
		{10, []int{0}, []int{1}},
		{20, []int{1}, []int{2, 3}},
		{30, []int{2, 3}, []int{4}},
		{40, []int{4}, nil},
		{50, []int{0, 2, 3}, []int{1, 4}},
		{21, []int{1}, []int{2, 3}},
	} {
		b := d.slot(want.v)
		var in, out []int
		for u := 0; u < d.nq; u++ {
			if d.inCellAt(b, graph.VertexID(u)) != nil {
				in = append(in, u)
			}
			if d.outCellAt(b, graph.VertexID(u)) != nil {
				out = append(out, u)
			}
		}
		w := d.nextBlock(int(b)) - int(b)
		if !slices.Equal(in, want.in) || !slices.Equal(out, want.out) || w != 1+len(in)+len(out) {
			t.Errorf("vertex %d: block of %d cells with in-roles %v, out-roles %v; want in %v, out %v", want.v, w, in, out, want.in, want.out)
		}
		width += w
	}
	if len(d.cells) != width {
		t.Fatalf("cell arena holds %d cells, the blocks %d", len(d.cells), width)
	}
	for _, bad := range []struct{ from, u, to graph.VertexID }{
		{graph.NoVertex, 0, 40}, // D is no u0 candidate
		{30, 1, 20},             // C is no u0 candidate, so holds no u1 children
		{20, 0, 10},             // the root has no out-cell
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeTransition(%d, u%d, %d) stored an edge the labels rule out", bad.from, bad.u, bad.to)
				}
			}()
			New(tr, g).MakeTransition(bad.from, bad.u, bad.to, Explicit)
		}()
	}

	// 40 loses its only edge; its D block goes on D's free list. A C
	// vertex cannot take it, the next D vertex does.
	freed := d.slot(40)
	step(30, 4, 40, Null)
	if _, free := d.slotStats(); free != 1 || d.slot(40) >= 0 {
		t.Fatalf("vertex 40 kept its block (free blocks: %d)", free)
	}
	end := int32(len(d.cells))
	step(20, 3, 31, Implicit)
	if b := d.slot(31); b != end {
		t.Fatalf("C vertex 31 got block %d, want a fresh one at %d (the free block %d is D's)", b, end, freed)
	}
	step(31, 4, 41, Implicit)
	if b := d.slot(41); b != freed {
		t.Fatalf("D vertex 41 got block %d, want the freed D block %d", b, freed)
	}

	// Churning blocks of two classes through their free lists allocates
	// nothing.
	cycle := func() {
		d.MakeTransition(graph.NoVertex, 0, 11, Implicit)
		d.MakeTransition(31, 4, 42, Implicit)
		d.MakeTransition(graph.NoVertex, 0, 11, Null)
		d.MakeTransition(31, 4, 42, Null)
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("block recycling allocates %v per cycle, want 0", avg)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}

	b := d.slot(20)
	h := d.cells[b]
	for _, bad := range []struct {
		name string
		h    cell
	}{
		{"another vertex of the class", cell{A: [1]graph.VertexID{11}, N: h.N}},
		{"another class of the same width", cell{A: h.A, N: g.LabelSet(30)}},
		{"a label set with no class", cell{A: h.A, N: 999}},
		{"a free header on no free list", cell{A: [1]graph.VertexID{graph.NoVertex}, N: h.N}},
	} {
		d.cells[b] = bad.h
		if err := d.Validate(); err == nil {
			t.Errorf("Validate accepted a block header naming %s", bad.name)
		} else {
			t.Logf("%s: %v", bad.name, err)
		}
		d.cells[b] = h
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}
