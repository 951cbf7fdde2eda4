package graph

import "testing"

// TestAdjacencyCompaction pins the deleted-slot recycling contract:
// draining a large per-label adjacency list shrinks its backing array;
// a large emptied bucket is dropped outright, while a small one is kept
// empty so churn around degree zero stays allocation-free.
func TestAdjacencyCompaction(t *testing.T) {
	g := New()
	const n = 1024
	for i := 1; i <= n; i++ {
		if !g.InsertEdge(1, 0, VertexID(1+i)) {
			t.Fatalf("insert %d: duplicate?", i)
		}
	}
	if c := cap(g.verts[1].out.neighbors(0)); c < n {
		t.Fatalf("out cap = %d after %d inserts", c, n)
	}
	for i := 1; i <= n-8; i++ {
		if !g.DeleteEdge(1, 0, VertexID(1+i)) {
			t.Fatalf("delete %d: missing?", i)
		}
	}
	out := g.verts[1].out.neighbors(0)
	if len(out) != 8 {
		t.Fatalf("len = %d, want 8", len(out))
	}
	if cap(out) > 64 {
		t.Fatalf("out cap = %d after draining to 8: backing array not compacted", cap(out))
	}
	for i := n - 7; i <= n; i++ {
		if !g.DeleteEdge(1, 0, VertexID(1+i)) {
			t.Fatalf("delete %d: missing?", i)
		}
	}
	if g.verts[1].out.find(0) >= 0 {
		t.Fatal("large emptied adjacency bucket was not dropped")
	}
	// The in-side singleton buckets are small: they stay, emptied, with
	// their tiny backing arrays ready for reuse.
	for i := 1; i <= n; i++ {
		in := g.verts[1+i].in
		bi := in.find(0)
		if bi < 0 {
			t.Fatalf("vertex %d dropped its small in-bucket", 1+i)
		}
		if l := in[bi].list; len(l) != 0 || cap(l) > adjKeepEmpty {
			t.Fatalf("vertex %d in-bucket len=%d cap=%d, want empty cap<=%d", 1+i, len(l), cap(l), adjKeepEmpty)
		}
	}
	if g.NumEdges() != 0 || g.EdgeCount(0) != 0 {
		t.Fatalf("counters: numEdges=%d edgeCount=%d", g.NumEdges(), g.EdgeCount(0))
	}
}

// TestAdjacencySteadyStateChurn is the regression the compaction exists
// for: long insert/delete churn at a stable live size must not grow the
// adjacency backing array unboundedly.
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
	out := g.verts[1].out.neighbors(0)
	if len(out) != live {
		t.Fatalf("len = %d, want %d", len(out), live)
	}
	if cap(out) > 4*live {
		t.Fatalf("out cap = %d after 20k churn ops at live size %d: unbounded growth", cap(out), live)
	}
}
