package sjtree

import (
	"errors"
	"testing"
	"time"

	"turboflux/internal/csm"
	"turboflux/internal/csm/csmtest"
	"turboflux/internal/graph"
	"turboflux/internal/query"
	"turboflux/internal/stream"
)

// TestDifferentialVsNaive replays random insert-only streams (SJ-Tree
// cannot delete) through SJ-Tree and the naive oracle under both
// semantics, comparing per-update positive and negative sets.
func TestDifferentialVsNaive(t *testing.T) {
	for _, injective := range []bool{false, true} {
		csmtest.MatchesNaive(t, injective, true, func(g0 *graph.Graph, q *query.Graph, opt csm.Options) (csm.Engine, error) {
			return New(g0, q, opt)
		})
	}
}

func TestDeletionUnsupported(t *testing.T) {
	q := query.NewGraph(2)
	_ = q.AddEdge(0, 1, 1)
	e, err := New(graph.New(), q, csm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(stream.Delete(0, 1, 1)); err != ErrDeletionUnsupported {
		t.Fatalf("delete err = %v, want ErrDeletionUnsupported", err)
	}
}

func TestSingleEdgeQuery(t *testing.T) {
	q := query.NewGraph(2)
	q.SetLabels(0, 1)
	_ = q.AddEdge(0, 5, 1)
	g := graph.New()
	_ = g.AddVertex(0, 1)
	_ = g.AddVertex(1, 2)
	e, err := New(g, q, csm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := e.InsertEdge(0, 5, 1); err != nil || n != 1 {
		t.Fatalf("n=%d err=%v, want 1", n, err)
	}
	if n, err := e.InsertEdge(1, 5, 0); err != nil || n != 0 {
		t.Fatalf("wrong-label-endpoint insert: n=%d err=%v, want 0", n, err)
	}
	if n, err := e.InsertEdge(0, 5, 1); err != nil || n != 0 {
		t.Fatalf("duplicate insert: n=%d err=%v", n, err)
	}
}

// TestIntermediateBlowup reproduces the Figure 2b pathology at miniature
// scale: a star fan-out inflates SJ-Tree's materialized tuples while no
// complete solution exists.
func TestIntermediateBlowup(t *testing.T) {
	// Query: u0(A) -0-> u1(B) -1-> u2(C) -2-> u3(D); data has 30 Bs
	// reachable from A, each with an edge to C, but no D edge at all.
	q := query.NewGraph(4)
	q.SetLabels(0, 0)
	q.SetLabels(1, 1)
	q.SetLabels(2, 2)
	q.SetLabels(3, 3)
	_ = q.AddEdge(0, 0, 1)
	_ = q.AddEdge(1, 1, 2)
	_ = q.AddEdge(2, 2, 3)
	g := graph.New()
	_ = g.AddVertex(0, 0)
	_ = g.AddVertex(1, 2)
	for i := graph.VertexID(10); i < 40; i++ {
		_ = g.AddVertex(i, 1)
	}
	e, err := New(g, q, csm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := graph.VertexID(10); i < 40; i++ {
		for _, up := range []stream.Update{stream.Insert(0, 0, i), stream.Insert(i, 1, 1)} {
			if n, err := e.Apply(up); n != 0 || err != nil {
				t.Fatalf("%v: n=%d err=%v, want no complete solution", up, n, err)
			}
		}
	}
	// 30 two-vertex leaf tuples for (u0,u1), 30 for (u1,u2) and 30 joined
	// three-vertex partials, at 8 bytes a vertex, with zero results.
	if got, want := e.IntermediateSizeBytes(), int64((30*2+30*2+30*3)*8); got != want {
		t.Fatalf("IntermediateSizeBytes = %d, want %d", got, want)
	}
}

// TestSJTreeCensorBound: one insertion whose join would store 490,000
// four-vertex tuples (15.7 MB by the accounting) is censored within one
// batch of tuples of SizeCap, and within one batch of tuples of an
// expired Deadline, instead of being stored whole before either is read.
func TestSJTreeCensorBound(t *testing.T) {
	// u0 -0-> u1, u1 -1-> u2, u1 -2-> u3 over the hub 1 with 700 out-edges
	// of each of labels 1 and 2: inserting (0, 0, 1) joins 700 partials
	// with 700 tuples each.
	const fan = 700
	q := query.NewGraph(4)
	_ = q.AddEdge(0, 0, 1)
	_ = q.AddEdge(1, 1, 2)
	_ = q.AddEdge(1, 2, 3)
	g0 := graph.New()
	for i := graph.VertexID(0); i < fan; i++ {
		g0.InsertEdge(1, 1, 1000+i)
		g0.InsertEdge(1, 2, 5000+i)
	}
	const batch = csm.Stride * 4 * 8 // one stride of root tuples, in bytes

	const sizeCap = 256 << 10
	e, err := New(g0.Clone(), q, csm.Options{SizeCap: sizeCap})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.InsertEdge(0, 0, 1); !errors.Is(err, csm.ErrSizeCap) {
		t.Fatalf("err = %v, want ErrSizeCap", err)
	}
	if got := e.IntermediateSizeBytes(); got > sizeCap+batch {
		t.Fatalf("size-censored join stored %d bytes, want at most %d", got, sizeCap+batch)
	}

	e, err = New(g0, q, csm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := e.IntermediateSizeBytes()
	e.timer = csm.NewTimer(time.Now().Add(-time.Second))
	if _, err := e.InsertEdge(0, 0, 1); !errors.Is(err, csm.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// The leaf tuple and the 700 partials of the first join level are
	// stored before the deadline is first read; at most one batch of root
	// tuples may follow.
	if got, limit := e.IntermediateSizeBytes(), before+2*8+fan*3*8+batch; got > limit {
		t.Fatalf("deadline-censored join stored %d bytes, want at most %d", got, limit)
	}
	if _, err := e.InsertEdge(2, 0, 1); !errors.Is(err, csm.ErrDeadline) {
		t.Fatalf("insertion after the deadline: err = %v, want ErrDeadline", err)
	}
}

func TestVertexDeclaration(t *testing.T) {
	q := query.NewGraph(2)
	q.SetLabels(1, 7)
	_ = q.AddEdge(0, 1, 1)
	e, err := New(graph.New(), q, csm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(stream.DeclareVertex(3, 7)); err != nil {
		t.Fatal(err)
	}
	if n, _ := e.Apply(stream.Insert(2, 1, 3)); n != 1 {
		t.Fatalf("n = %d, want 1", n)
	}
	if _, err := e.Apply(stream.Update{Op: 99}); err == nil {
		t.Fatal("unknown op must error")
	}
}

func TestInvalidQuery(t *testing.T) {
	if _, err := New(graph.New(), query.NewGraph(0), csm.Options{}); err == nil {
		t.Fatal("invalid query must error")
	}
}
