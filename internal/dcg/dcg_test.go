package dcg

import (
	"testing"

	"turboflux/internal/graph"
	"turboflux/internal/query"
)

// Vertex labels.
const (
	lA graph.Label = iota
	lB
	lC
	lD
)

// Edge labels.
const (
	e1 graph.Label = iota // u0 -> u1
	e2                    // u1 -> u2
	e3                    // u1 -> u3
	e4                    // u3 -> u4
)

// paperQuery mirrors the shape of Figure 1's query at miniature scale:
//
//	u0(A) -e1-> u1(B); u1 -e2-> u2(C); u1 -e3-> u3(C); u3 -e4-> u4(D)
func paperQuery(t *testing.T) *query.Graph {
	t.Helper()
	q := query.NewGraph(5)
	q.SetLabels(0, lA)
	q.SetLabels(1, lB)
	q.SetLabels(2, lC)
	q.SetLabels(3, lC)
	q.SetLabels(4, lD)
	for _, e := range []graph.Edge{
		{From: 0, Label: e1, To: 1},
		{From: 1, Label: e2, To: 2},
		{From: 1, Label: e3, To: 3},
		{From: 3, Label: e4, To: 4},
	} {
		if err := q.AddEdge(e.From, e.Label, e.To); err != nil {
			t.Fatal(err)
		}
	}
	return q
}

// paperData builds the matching miniature of Figure 1's g0:
//
//	v0(A) -e1-> v2(B); v2 -e2-> v4(C), v5(C); v2 -e3-> v104(C)
//
// v104 has no e4 child yet, so the u3 branch is unmatched: every edge on
// the path to v104 and above stays IMPLICIT while the u2 branch is
// EXPLICIT.
func paperData(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddVertex(0, lA))
	must(g.AddVertex(2, lB))
	must(g.AddVertex(4, lC))
	must(g.AddVertex(5, lC))
	must(g.AddVertex(104, lC))
	g.InsertEdge(0, e1, 2)
	g.InsertEdge(2, e2, 4)
	g.InsertEdge(2, e2, 5)
	g.InsertEdge(2, e3, 104)
	return g
}

func paperTree(t *testing.T, g *graph.Graph) *query.Tree {
	t.Helper()
	tr, err := query.TransformToTree(paperQuery(t), 0, g)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMakeTransitionCounters(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)
	d := New(tr, everyLabel)

	if s := d.GetState(0, 1, 2); s != Null {
		t.Fatalf("initial state = %v, want N", s)
	}
	if !d.MakeTransition(0, 1, 2, Implicit) {
		t.Fatal("N->I must report change")
	}
	if d.MakeTransition(0, 1, 2, Implicit) {
		t.Fatal("I->I must report no change")
	}
	if d.NumEdges() != 1 || d.NumExplicit() != 0 {
		t.Fatalf("counts after I: edges=%d expl=%d", d.NumEdges(), d.NumExplicit())
	}
	if !d.MakeTransition(0, 1, 2, Explicit) {
		t.Fatal("I->E must report change")
	}
	if d.NumEdges() != 1 || d.NumExplicit() != 1 {
		t.Fatalf("counts after E: edges=%d expl=%d", d.NumEdges(), d.NumExplicit())
	}
	if d.ExplicitOut(0, 1) != 1 {
		t.Fatalf("ExplicitOut(0,1) = %d, want 1", d.ExplicitOut(0, 1))
	}
	if d.ExplicitCount(1) != 1 {
		t.Fatalf("ExplicitCount(1) = %d, want 1", d.ExplicitCount(1))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// E -> I (Transition 4).
	if !d.MakeTransition(0, 1, 2, Implicit) {
		t.Fatal("E->I must report change")
	}
	if d.ExplicitOut(0, 1) != 0 || d.NumExplicit() != 0 || d.NumEdges() != 1 {
		t.Fatal("E->I counter maintenance wrong")
	}
	// I -> N (Transition 5).
	if !d.MakeTransition(0, 1, 2, Null) {
		t.Fatal("I->N must report change")
	}
	if d.NumEdges() != 0 || d.InDegree(2, 1) != 0 {
		t.Fatal("I->N did not remove edge")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRootEdges(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)
	d := New(tr, everyLabel)
	d.MakeTransition(graph.NoVertex, 0, 0, Implicit)
	if d.InDegree(0, 0) != 1 {
		t.Fatal("root edge not stored")
	}
	if got := d.RootCandidates(false); len(got) != 1 || got[0] != 0 {
		t.Fatalf("RootCandidates = %v", got)
	}
	if got := d.RootCandidates(true); len(got) != 0 {
		t.Fatalf("explicit RootCandidates = %v, want empty", got)
	}
	d.MakeTransition(graph.NoVertex, 0, 0, Explicit)
	if got := d.RootCandidates(true); len(got) != 1 {
		t.Fatalf("explicit RootCandidates after E = %v", got)
	}
	// graph.NoVertex parent must not create an out counter.
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchAllChildren(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)
	d := New(tr, everyLabel)
	// u1's children are u2 and u3. Leaf u4 has none.
	if !d.MatchAllChildren(2, 4) {
		t.Fatal("leaf query vertex must always match-all-children")
	}
	if d.MatchAllChildren(2, 1) {
		t.Fatal("u1 with no explicit children must fail")
	}
	d.MakeTransition(2, 2, 4, Explicit) // v2 -u2-> v4 explicit
	if d.MatchAllChildren(2, 1) {
		t.Fatal("u1 with only u2 matched must fail")
	}
	d.MakeTransition(2, 3, 104, Explicit) // v2 -u3-> v104 explicit
	if !d.MatchAllChildren(2, 1) {
		t.Fatal("u1 with both children matched must succeed")
	}
}

func TestInLabelsAndParents(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)
	d := New(tr, everyLabel)
	d.MakeTransition(0, 1, 2, Implicit)
	d.MakeTransition(5, 1, 2, Explicit) // hypothetical second parent
	if !d.HasInLabel(2, 1) || d.HasInLabel(2, 2) {
		t.Fatal("HasInLabel wrong")
	}
	for _, e := range d.Snapshot() {
		if e.Key.QV != 1 || e.Key.To != 2 {
			t.Fatalf("Snapshot stores %v, want only in-edges of v2 labeled u1", e.Key)
		}
	}
	all := d.AppendInParents(nil, 2, 1, false)
	if len(all) != 2 || all[0] != 0 || all[1] != 5 {
		t.Fatalf("AppendInParents all = %v, want [0 5]", all)
	}
	expl := d.AppendInParents(all[:0], 2, 1, true)
	if len(expl) != 1 || expl[0] != 5 {
		t.Fatalf("AppendInParents explicit = %v", expl)
	}
}

func TestExplicitChildrenEnumeration(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)
	d := New(tr, everyLabel)
	d.MakeTransition(2, 2, 4, Explicit)
	d.MakeTransition(2, 2, 5, Implicit)
	if got := d.ExplicitChildrenList(2, 2); len(got) != 1 || got[0] != 4 {
		t.Fatalf("ExplicitChildrenList = %v, want [4]", got)
	}
	d.MakeTransition(2, 2, 5, Explicit)
	if got := d.ExplicitChildrenList(2, 2); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("ExplicitChildrenList = %v, want [4 5]", got)
	}
	// A vertex without explicit out, with and without a slot.
	if got := d.ExplicitChildrenList(4, 2); len(got) != 0 {
		t.Fatalf("ExplicitChildrenList of a childless vertex = %v", got)
	}
	if got := d.ExplicitChildrenList(0, 2); got != nil {
		t.Fatalf("ExplicitChildrenList of a vertex outside the DCG = %v", got)
	}
}

func TestSizeAccounting(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)
	d := New(tr, everyLabel)
	d.MakeTransition(0, 1, 2, Implicit)
	d.MakeTransition(2, 2, 4, Explicit)
	if d.SizeBytes() != 2*EdgeBytes {
		t.Fatalf("SizeBytes = %d, want %d", d.SizeBytes(), 2*EdgeBytes)
	}
	snap := d.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot has %d edges, want 2", len(snap))
	}
	if d.SnapshotMap()[EdgeKey{From: 0, QV: 1, To: 2}] != Implicit {
		t.Fatal("snapshot state wrong")
	}
	// DCG size bound: edges <= |V(q)| * (|E(g)| + |V(g)|) — root edges count
	// against vertices. With 4 data edges and 5 query vertices the bound is
	// comfortable; check the paper's bound form on the stored count.
	if d.NumEdges() > tr.Q.NumVertices()*(g.NumEdges()+g.NumVertices()) {
		t.Fatal("DCG exceeded storage bound")
	}
}

func TestStateString(t *testing.T) {
	if Null.String() != "N" || Implicit.String() != "I" || Explicit.String() != "E" {
		t.Fatal("State.String wrong")
	}
	if State(9).String() != "?" {
		t.Fatal("unknown state must render ?")
	}
	k := EdgeKey{From: graph.NoVertex, QV: 0, To: 3}
	if k.String() != "(v*, u0, v3)" {
		t.Fatalf("EdgeKey root string = %q", k.String())
	}
	k2 := EdgeKey{From: 1, QV: 2, To: 3}
	if k2.String() != "(v1, u2, v3)" {
		t.Fatalf("EdgeKey string = %q", k2.String())
	}
}
