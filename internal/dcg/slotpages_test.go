package dcg

import (
	"testing"

	"turboflux/internal/graph"
)

// TestSlotPages pins the paged slot table (DESIGN.md §16): a DCG gives a
// page of vertex IDs slot entries only once a vertex in it needs a block,
// so an ID range whose labels fill no role in the DCG costs nothing but
// its page-table entries; interleaved label sets cost what the dense
// array did plus the page table and the shared empty page; a released
// block keeps its page for the next vertex of that page; and Validate
// rejects a slot table a broken release or ensureSlot would leave behind.
func TestSlotPages(t *testing.T) {
	// u0(A) -e1-> u1(A): every role of this DCG needs label A.
	q := newPathQuery(t, 1, e1)
	q.SetLabels(0, lA)
	q.SetLabels(1, lA)

	// newDCG returns an empty DCG over vertices 0..n-1, labeled by label.
	newDCG := func(n int, label func(v graph.VertexID) graph.Label) *DCG {
		t.Helper()
		g := graph.New()
		for v := graph.VertexID(0); v < graph.VertexID(n); v++ {
			if err := g.AddVertex(v, label(v)); err != nil {
				t.Fatal(err)
			}
		}
		return New(mustTree(t, q, 0, g), g)
	}
	// root gives every A vertex of [lo, hi) a root edge in state s.
	root := func(d *DCG, lo, hi graph.VertexID, s State) {
		t.Helper()
		for v := lo; v < hi; v++ {
			if d.g.HasAllLabels(v, []graph.Label{lA}) {
				d.MakeTransition(graph.NoVertex, 0, v, s)
			}
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	allocated := func(d *DCG) (n int) {
		for _, off := range d.pages {
			if off != 0 {
				n++
			}
		}
		return n
	}

	t.Run("contiguous", func(t *testing.T) {
		// Page 0 holds A vertices, pages 1..8 B vertices, page 9 A again:
		// LSBench's contiguous ID range per vertex type in miniature.
		const n = 10 * pageSize
		d := newDCG(n, func(v graph.VertexID) graph.Label {
			if v < pageSize || v >= 9*pageSize {
				return lA
			}
			return lB
		})
		root(d, 0, n, Implicit)
		if got := allocated(d); got != 2 || len(d.pages) != 10 {
			t.Fatalf("%d of %d pages allocated, want the 2 of 10 that hold A vertices", got, len(d.pages))
		}
		for p := 1; p < 9; p++ {
			if d.pages[p] != 0 {
				t.Errorf("page %d of B vertices has slot entries at %d", p, d.pages[p])
			}
		}
		if len(d.slots) != 3*pageSize {
			t.Errorf("slot table holds %d entries, want the shared page and two pages, %d", len(d.slots), 3*pageSize)
		}
		if b := d.slot(5 * pageSize); b != -1 {
			t.Errorf("B vertex %d has slot %d", 5*pageSize, b)
		}
		if b := d.slot(graph.NoVertex); b != -1 {
			t.Errorf("NoVertex has slot %d", b)
		}
	})

	t.Run("interleaved", func(t *testing.T) {
		// Every other vertex is an A vertex, so every page is needed.
		const n = 8*pageSize + 100
		d := newDCG(n, func(v graph.VertexID) graph.Label { return graph.Label(v % 2) })
		root(d, 0, n, Implicit)
		pages := (n + pageSize - 1) / pageSize
		if allocated(d) != pages {
			t.Fatalf("%d pages allocated, want all %d", allocated(d), pages)
		}
		// Both layouts grow by append, so entries compare as bytes do: the
		// dense array over whole pages, one shared page, one entry a page.
		paged := len(d.slots) + len(d.pages)
		if bound := pages*pageSize + pageSize + pages; paged > bound {
			t.Errorf("paged slot table holds %d entries, want <= %d: the dense %d rounded up to pages, the shared page and the page table", paged, bound, n)
		}
	})

	t.Run("recycle", func(t *testing.T) {
		const n = 4 * pageSize
		d := newDCG(n, func(graph.VertexID) graph.Label { return lA })
		v, w := graph.VertexID(2*pageSize+7), graph.VertexID(2*pageSize+900)
		d.MakeTransition(graph.NoVertex, 0, v, Implicit)
		b, entries, page := d.slot(v), len(d.slots), d.pages[2]
		cycle := func() {
			d.MakeTransition(graph.NoVertex, 0, v, Null)
			d.MakeTransition(graph.NoVertex, 0, w, Implicit)
			d.MakeTransition(graph.NoVertex, 0, w, Null)
			d.MakeTransition(graph.NoVertex, 0, v, Implicit)
		}
		cycle()
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if d.slot(v) != b || d.slot(w) != -1 || len(d.slots) != entries || d.pages[2] != page {
			t.Fatalf("recycling moved vertex %d from block %d to %d (vertex %d at %d), slots %d -> %d entries, page at %d -> %d",
				v, b, d.slot(v), w, d.slot(w), entries, len(d.slots), page, d.pages[2])
		}
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Fatalf("recycling a block within its page allocates %v per cycle, want 0", avg)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		const n = 4 * pageSize
		d := newDCG(n, func(graph.VertexID) graph.Label { return lA })
		v, w := graph.VertexID(pageSize+3), graph.VertexID(3*pageSize+3)
		d.MakeTransition(graph.NoVertex, 0, v, Implicit)
		d.MakeTransition(graph.NoVertex, 0, w, Implicit)
		d.MakeTransition(graph.NoVertex, 0, w, Null) // w's block is free
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if d.slot(w) != -1 {
			t.Fatalf("released vertex %d kept slot %d", w, d.slot(w))
		}
		bv, iv, iw := d.slot(v), d.slotIndex(v), d.slotIndex(w)
		bw := int32(d.nextBlock(int(bv))) // the free block w held
		pages := append([]uint32(nil), d.pages...)
		for _, bad := range []struct {
			name  string
			at    int
			slot  int32
			pages []uint32
		}{
			{"a slot in the shared empty page", 3, bv, nil},
			{"a stale slot on a released block", iw, bw, nil},
			{"a slot on another vertex's block", iw, bv, nil},
			{"a slot past -1", iv, -2, nil},
			{"two pages on one page of slots", -1, 0, []uint32{0, pages[1], 0, pages[1]}},
			{"a page offset inside a page", -1, 0, []uint32{0, pages[1] + 1, 0, pages[3]}},
			{"a lost page of slots", -1, 0, []uint32{0, pages[1], 0, 0}},
		} {
			var old int32
			if bad.at >= 0 {
				old, d.slots[bad.at] = d.slots[bad.at], bad.slot
			} else {
				d.pages = bad.pages
			}
			if err := d.Validate(); err == nil {
				t.Errorf("Validate accepted %s", bad.name)
			} else {
				t.Logf("%s: %v", bad.name, err)
			}
			if bad.at >= 0 {
				d.slots[bad.at] = old
			}
			d.pages = pages
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
