package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"turboflux/internal/dcg"
	"turboflux/internal/graph"
	"turboflux/internal/query"
	"turboflux/internal/stream"
)

// starGraph is one hub 0 with children 1..50 (label 0), each with one
// grandchild 100+i (label 1): the path query 0-[0]->1-[1]->2 has 50
// initial matches over it.
func starGraph() *graph.Graph {
	g := graph.New()
	for i := graph.VertexID(1); i <= 50; i++ {
		g.InsertEdge(0, 0, i)
		g.InsertEdge(i, 1, 100+i)
	}
	return g
}

func pathQuery() *query.Graph {
	q := query.NewGraph(3)
	_ = q.AddEdge(0, 0, 1)
	_ = q.AddEdge(1, 1, 2)
	return q
}

// checkFixpoint fails unless e's DCG is exactly the declarative fixpoint
// of its graph and its counters are consistent.
func checkFixpoint(t *testing.T, e *Engine, stage string) {
	t.Helper()
	spec := dcg.ComputeSpec(e.Graph(), e.Tree())
	snap := e.DCG().SnapshotMap()
	if len(spec) != len(snap) {
		t.Fatalf("%s: DCG has %d edges, spec %d", stage, len(snap), len(spec))
	}
	for k, s := range spec {
		if snap[k] != s {
			t.Fatalf("%s: DCG[%v]=%v, spec=%v", stage, k, snap[k], s)
		}
	}
	if err := e.DCG().Validate(); err != nil {
		t.Fatalf("DCG counters inconsistent after abort: %v", err)
	}
}

// TestWorkBudgetAborts: a cap below an update's match count censors it
// with ErrWorkBudget after exactly the cap's worth of matches, and the
// update's maintenance still runs to the end — the DCG is the fixpoint of
// the graph afterwards, for insertions and deletions alike.
func TestWorkBudgetAborts(t *testing.T) {
	opt := DefaultOptions()
	opt.WorkBudget = 10
	e, err := New(starGraph(), pathQuery(), opt)
	if err != nil {
		t.Fatalf("construction is never censored, got %v", err)
	}
	e.opt.WorkBudget = 1
	// 200 gets five grandchildren first (no match: nothing reaches 200 yet),
	// then one hub edge completes five matches at once.
	for k := graph.VertexID(0); k < 5; k++ {
		if n, err := e.InsertEdge(200, 1, 300+k); n != 0 || err != nil {
			t.Fatalf("grandchild %d: n=%d err=%v", k, n, err)
		}
	}
	n, err := e.InsertEdge(0, 0, 200)
	if !errors.Is(err, ErrWorkBudget) {
		t.Fatalf("expected ErrWorkBudget, got %v", err)
	}
	if n != 1 {
		t.Fatalf("censored insert reported %d matches, want the cap 1", n)
	}
	checkFixpoint(t, e, "censored insert")
	n, err = e.DeleteEdge(0, 0, 200)
	if !errors.Is(err, ErrWorkBudget) || n != 1 {
		t.Fatalf("censored delete: n=%d err=%v, want 1 and ErrWorkBudget", n, err)
	}
	checkFixpoint(t, e, "censored delete")
	// An update with exactly the cap's matches is not censored.
	e.opt.WorkBudget = 5
	if n, err := e.InsertEdge(0, 0, 200); n != 5 || err != nil {
		t.Fatalf("insert at the cap: n=%d err=%v, want 5 and no error", n, err)
	}
}

// TestBudgetRecovery: after a censored operation, subsequent operations
// see the complete DCG (each op gets a fresh budget).
func TestBudgetRecovery(t *testing.T) {
	g := graph.New()
	for i := graph.VertexID(1); i <= 50; i++ {
		g.InsertEdge(0, 0, i)
	}
	opt := DefaultOptions()
	opt.WorkBudget = 500
	e, err := New(g, pathQuery(), opt)
	if err != nil {
		t.Fatal(err)
	}
	e.opt.WorkBudget = 3
	// 60 gains four children (no match: nothing reaches 60 yet), then the
	// hub edge (0,0,60) completes four matches against a cap of three.
	for k := graph.VertexID(61); k <= 64; k++ {
		if _, err := e.InsertEdge(60, 1, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.InsertEdge(0, 0, 60); !errors.Is(err, ErrWorkBudget) {
		t.Fatalf("expected ErrWorkBudget, got %v", err)
	}
	e.opt.WorkBudget = 1_000_000
	if _, err := e.InsertEdge(200, 0, 201); err != nil {
		t.Fatalf("cheap op after abort failed: %v", err)
	}
	// The censored insert still built 60's branch: one more child of 60 is
	// one more match.
	if n, err := e.InsertEdge(60, 1, 65); n != 1 || err != nil {
		t.Fatalf("insert below a censored update: n=%d err=%v, want 1", n, err)
	}
}

// TestInitialMatchesUncapped: neither construction nor InitialMatches is
// capped by WorkBudget, however far below the initial match count it is.
func TestInitialMatchesUncapped(t *testing.T) {
	for _, budget := range []int64{1, 10, 49, 210} {
		opt := DefaultOptions()
		opt.WorkBudget = budget
		e, err := New(starGraph(), pathQuery(), opt)
		if err != nil {
			t.Fatalf("budget %d: construction censored: %v", budget, err)
		}
		if n := e.InitialMatches(); n != 50 {
			t.Fatalf("budget %d: InitialMatches = %d, want all 50", budget, n)
		}
		checkFixpoint(t, e, fmt.Sprintf("budget %d", budget))
	}
}

// TestBidirectionalQueryEdges: two query edges in opposite directions
// between the same pair must both be honored.
func TestBidirectionalQueryEdges(t *testing.T) {
	q := query.NewGraph(2)
	_ = q.AddEdge(0, 5, 1)
	_ = q.AddEdge(1, 5, 0)
	g := graph.New()
	g.InsertEdge(7, 5, 8)
	e, err := New(g, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Only one direction exists: no match yet.
	if n := e.InitialMatches(); n != 0 {
		t.Fatalf("initial = %d", n)
	}
	n, err := e.InsertEdge(8, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Two homomorphisms: (u0,u1)->(7,8) and ->(8,7).
	if n != 2 {
		t.Fatalf("matches = %d, want 2", n)
	}
	// Removing one direction retracts both.
	n, err = e.DeleteEdge(7, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("negatives = %d, want 2", n)
	}
}

// TestParallelLabelsBetweenSamePair: data edges with different labels
// between the same vertices are independent.
func TestParallelLabelsBetweenSamePair(t *testing.T) {
	q := query.NewGraph(3)
	_ = q.AddEdge(0, 1, 1)
	_ = q.AddEdge(1, 2, 2)
	g := graph.New()
	g.InsertEdge(5, 1, 6)
	e, err := New(g, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Same pair, second label: completes the 2-hop pattern 5->6->? no —
	// the pattern needs u1->u2, and (5,2,6)? u1 is 6 here. Insert 6-2->5.
	n, err := e.InsertEdge(6, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("matches = %d, want 1", n)
	}
	// The wrong-label parallel edge contributes nothing.
	if n, _ := e.InsertEdge(5, 2, 6); n != 0 {
		t.Fatalf("parallel edge produced %d matches", n)
	}
}

// TestDataSelfLoops: self loops in the data must match 2-vertex query
// edges under homomorphism only when the query allows u->u' with
// m(u)=m(u') — and never under isomorphism.
func TestDataSelfLoops(t *testing.T) {
	q := query.NewGraph(2)
	_ = q.AddEdge(0, 1, 1)
	g := graph.New()
	hom, err := New(g.Clone(), q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n, err := hom.InsertEdge(3, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("homomorphism self-loop matches = %d, want 1", n)
	}
	isoOpt := DefaultOptions()
	isoOpt.Semantics = Isomorphism
	iso, err := New(g.Clone(), q, isoOpt)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := iso.InsertEdge(3, 1, 3); n != 0 {
		t.Fatalf("isomorphism self-loop matches = %d, want 0", n)
	}
}

// TestQuerySelfLoop: a query self loop (u -l-> u) is a non-tree edge that
// only self-loop data edges can satisfy.
func TestQuerySelfLoop(t *testing.T) {
	q := query.NewGraph(2)
	_ = q.AddEdge(0, 1, 1) // tree edge
	_ = q.AddEdge(1, 2, 1) // self loop on u1
	g := graph.New()
	g.InsertEdge(5, 1, 6)
	e, err := New(g, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := e.InitialMatches(); n != 0 {
		t.Fatalf("initial = %d", n)
	}
	n, err := e.InsertEdge(6, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("self-loop completion = %d, want 1", n)
	}
	if n, _ := e.InsertEdge(6, 2, 7); n != 0 {
		t.Fatal("non-loop edge must not satisfy a query self loop")
	}
}

// TestEmptyStreamAndIdempotentOps: empty streams, duplicate inserts and
// double deletes are all harmless.
func TestEmptyStreamAndIdempotentOps(t *testing.T) {
	e := newFig1Engine(t, nil)
	for i := 0; i < 3; i++ {
		if n, err := e.InsertEdge(104, e4, 414); err != nil || (i == 0) != (n == 2) {
			t.Fatalf("iter %d: n=%d err=%v", i, n, err)
		}
	}
	for i := 0; i < 3; i++ {
		if n, err := e.DeleteEdge(104, e4, 414); err != nil || (i == 0) != (n == 2) {
			t.Fatalf("iter %d: n=%d err=%v", i, n, err)
		}
	}
	if err := e.DCG().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteEdgeNeverInserted: deleting an edge the engine never saw must
// not disturb the DCG.
func TestDeleteEdgeNeverInserted(t *testing.T) {
	e := newFig1Engine(t, nil)
	before := e.DCG().Snapshot()
	if n, err := e.DeleteEdge(9999, 0, 8888); err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	after := e.DCG().Snapshot()
	if !slices.Equal(before, after) {
		t.Fatal("DCG changed on no-op delete")
	}
}

// TestNaiveELEquivalence: the NaiveEL ablation must report the same
// matches as the selective engine (it is slower, not different).
func TestNaiveELEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		runNaiveELComparison(t, seed)
	}
}

func runNaiveELComparison(t *testing.T, seed int64) {
	t.Helper()
	g := graph.New()
	q := query.NewGraph(3)
	_ = q.AddEdge(0, 1, 1)
	_ = q.AddEdge(1, 2, 2)

	optA := DefaultOptions()
	optB := DefaultOptions()
	optB.NaiveEL = true
	a, err := New(g.Clone(), q, optA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(g.Clone(), q, optB)
	if err != nil {
		t.Fatal(err)
	}
	ups := []stream.Update{
		stream.Insert(1, 1, 2), stream.Insert(2, 2, 3),
		stream.Insert(2, 2, 4), stream.Delete(1, 1, 2),
		stream.Insert(5, 1, 2), stream.Insert(5, 1, 6),
		stream.Delete(2, 2, 3),
	}
	for i, u := range ups {
		na, err := a.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := b.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		if na != nb {
			t.Fatalf("seed %d step %d: selective=%d naive=%d", seed, i, na, nb)
		}
		// The rebuilt DCG must agree with the incrementally maintained one.
		sa, sb := a.DCG().Snapshot(), b.DCG().Snapshot()
		if !slices.Equal(sa, sb) {
			t.Fatalf("step %d: DCG snapshots diverge:\n selective %v\n naive     %v", i, sa, sb)
		}
	}
}

// TestAblationFlagsStillCorrect: disabling check-and-avoid or order
// adjustment must not change reported matches, only performance.
func TestAblationFlagsStillCorrect(t *testing.T) {
	variants := []Options{
		func() Options { o := DefaultOptions(); o.DisableCheckAndAvoid = true; return o }(),
		func() Options { o := DefaultOptions(); o.DisableOrderAdjust = true; return o }(),
	}
	base := newFig1Engine(t, nil)
	wantIns, _ := base.InsertEdge(104, e4, 414)
	wantDel, _ := base.DeleteEdge(104, e4, 414)
	for i, opt := range variants {
		opt.StartVertex = 0
		e, err := New(figure1Data(t), figure1Query(t), opt)
		if err != nil {
			t.Fatal(err)
		}
		ins, err := e.InsertEdge(104, e4, 414)
		if err != nil {
			t.Fatal(err)
		}
		del, err := e.DeleteEdge(104, e4, 414)
		if err != nil {
			t.Fatal(err)
		}
		if ins != wantIns || del != wantDel {
			t.Fatalf("variant %d: ins=%d del=%d, want %d/%d", i, ins, del, wantIns, wantDel)
		}
		if err := e.DCG().Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
