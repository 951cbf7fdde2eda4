package graph

import "testing"

// listCap returns the capacity the storage holds for v's out-list (out) or
// in-list for label l: 1 for an inline neighbor, the block's otherwise, 0
// when there is no list.
func listCap(g *Graph, v VertexID, l Label, out bool) int {
	h := &g.verts[v].in
	if out {
		h = &g.verts[v].out
	}
	if h.n&headInline != 0 {
		if Label(h.n>>headLabelShift) == l {
			return 1
		}
		return 0
	}
	for _, b := range g.bucketsOf(h) {
		if b.label == l {
			if k := b.c.Class(); k != 0 {
				return 1 << k
			}
			return 1
		}
	}
	return 0
}

// TestAdjacencyCompaction pins the deleted-slot recycling contract:
// draining a large per-label adjacency list shrinks its block; an emptied
// bucket is dropped outright (its direction goes back to an empty head),
// and churn around degree zero stays allocation-free through the arenas'
// free lists.
func TestAdjacencyCompaction(t *testing.T) {
	g := New()
	const n = 1024
	for i := 1; i <= n; i++ {
		if !g.InsertEdge(1, 0, VertexID(1+i)) {
			t.Fatalf("insert %d: duplicate?", i)
		}
	}
	if c := listCap(g, 1, 0, true); c < n {
		t.Fatalf("out cap = %d after %d inserts", c, n)
	}
	for i := 1; i <= n-8; i++ {
		if !g.DeleteEdge(1, 0, VertexID(1+i)) {
			t.Fatalf("delete %d: missing?", i)
		}
	}
	if out := g.OutNeighbors(1, 0); len(out) != 8 {
		t.Fatalf("len = %d, want 8", len(out))
	}
	if c := listCap(g, 1, 0, true); c > 64 {
		t.Fatalf("out cap = %d after draining to 8: block not compacted", c)
	}
	for i := n - 7; i <= n; i++ {
		if !g.DeleteEdge(1, 0, VertexID(1+i)) {
			t.Fatalf("delete %d: missing?", i)
		}
	}
	if g.verts[1].out != (head{}) {
		t.Fatalf("emptied out-direction kept head %+v", g.verts[1].out)
	}
	// The in-side singletons were inline: emptied, their heads are zero
	// and hold nothing.
	for i := 1; i <= n; i++ {
		if h := g.verts[1+i].in; h != (head{}) {
			t.Fatalf("vertex %d kept in-head %+v after its last edge went", 1+i, h)
		}
	}
	if g.NumEdges() != 0 || g.EdgeCount(0) != 0 {
		t.Fatalf("counters: numEdges=%d edgeCount=%d", g.NumEdges(), g.EdgeCount(0))
	}
	if err := g.validate(); err != nil {
		t.Fatal(err)
	}
	// The dropped buckets' and lists' blocks are on the free lists: churn
	// over the same vertices allocates nothing.
	churn := func() {
		for i := 2; i <= 40; i++ {
			g.InsertEdge(1, 0, VertexID(i))
			g.InsertEdge(VertexID(i), 1, 1)
		}
		for i := 2; i <= 40; i++ {
			g.DeleteEdge(1, 0, VertexID(i))
			g.DeleteEdge(VertexID(i), 1, 1)
		}
	}
	churn()
	if avg := testing.AllocsPerRun(20, churn); avg != 0 {
		t.Fatalf("churn after the drain allocates %v per run, want 0", avg)
	}
}

// TestAdjacencySteadyStateChurn is the regression the compaction exists
// for: long insert/delete churn at a stable live size must not grow the
// adjacency storage unboundedly.
func TestAdjacencySteadyStateChurn(t *testing.T) {
	g := New()
	const live = 16
	next := VertexID(2)
	var fifo []VertexID
	for i := 0; i < live; i++ {
		g.InsertEdge(1, 0, next)
		fifo = append(fifo, next)
		next++
	}
	for i := 0; i < 20000; i++ {
		g.InsertEdge(1, 0, next)
		fifo = append(fifo, next)
		next++
		g.DeleteEdge(1, 0, fifo[0])
		fifo = fifo[1:]
	}
	if out := g.OutNeighbors(1, 0); len(out) != live {
		t.Fatalf("len = %d, want %d", len(out), live)
	}
	if c := listCap(g, 1, 0, true); c > 4*live {
		t.Fatalf("out cap = %d after 20k churn ops at live size %d: unbounded growth", c, live)
	}
	if e := g.nbrs.Entries(); e > 8*live {
		t.Fatalf("neighbor arena carved %d entries for one list of %d: blocks not recycled", e, live)
	}
}
