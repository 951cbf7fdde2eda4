package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddVertexAndLabels(t *testing.T) {
	g := New()
	if err := g.AddVertex(1, 5, 3, 5, 1); err != nil {
		t.Fatalf("AddVertex: %v", err)
	}
	got := g.Labels(1)
	want := []Label{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Labels(1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels(1) = %v, want %v", got, want)
		}
	}
	if err := g.AddVertex(1); err == nil {
		t.Fatal("re-adding vertex 1 should fail")
	}
	if g.NumVertices() != 1 {
		t.Fatalf("NumVertices = %d, want 1", g.NumVertices())
	}
}

// TestLabelSetInterning: vertices declared with the same label set, in any
// order and with repeats, share one interned slice; absent and unlabeled
// vertices stay apart; a set interned on a clone does not reach the
// original; a set longer than the stack key buffer still interns.
func TestLabelSetInterning(t *testing.T) {
	g := New()
	_ = g.AddVertex(1, 5, 3, 5, 1)
	_ = g.AddVertex(2, 1, 3, 5)
	_ = g.AddVertex(3, 3, 1, 5, 1)
	_ = g.AddVertex(4)
	_ = g.AddVertex(9, 7)
	for _, v := range []VertexID{2, 3} {
		if a, b := g.Labels(1), g.Labels(v); len(b) != 3 || &a[0] != &b[0] {
			t.Fatalf("vertices 1 and %d do not share a label set: %v / %v", v, a, b)
		}
	}
	if n := len(g.labelSets); n != unlabeled+3 {
		t.Fatalf("%d interned sets, want absent, empty, {1,3,5} and {7}", n)
	}
	if !g.HasVertex(4) || g.Labels(4) != nil || !g.HasAllLabels(4, nil) {
		t.Fatal("unlabeled vertex 4 must exist and match the empty requirement")
	}
	for _, v := range []VertexID{0, 5, 100} {
		if g.HasVertex(v) || g.Labels(v) != nil || g.HasAllLabels(v, nil) || g.HasLabel(v, 1) {
			t.Fatalf("absent vertex %d is visible", v)
		}
	}

	c := g.Clone()
	_ = c.AddVertex(5, 8, 2)
	_ = g.AddVertex(5, 6)
	if got := c.Labels(5); len(got) != 2 || got[0] != 2 || got[1] != 8 {
		t.Fatalf("clone Labels(5) = %v, want [2 8]", got)
	}
	if got := g.Labels(5); len(got) != 1 || got[0] != 6 {
		t.Fatalf("original Labels(5) = %v, want [6]", got)
	}
	if got := c.Labels(2); len(got) != 3 || !c.HasLabel(2, 3) {
		t.Fatalf("clone lost Labels(2): %v", got)
	}

	var wide []Label
	for l := Label(40); l > 0; l-- {
		wide = append(wide, l*300)
	}
	_ = g.AddVertex(6, wide...)
	_ = g.AddVertex(7, wide...)
	if a, b := g.Labels(6), g.Labels(7); len(a) != 40 || &a[0] != &b[0] || a[0] != 300 || !g.HasAllLabels(7, a) {
		t.Fatalf("wide label set not interned: %v", a)
	}
}

func TestHasAllLabels(t *testing.T) {
	g := New()
	if err := g.AddVertex(0, 2, 4, 6); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		req  []Label
		want bool
	}{
		{nil, true},
		{[]Label{2}, true},
		{[]Label{2, 6}, true},
		{[]Label{2, 4, 6}, true},
		{[]Label{3}, false},
		{[]Label{2, 5}, false},
		{[]Label{7}, false},
	}
	for _, c := range cases {
		if got := g.HasAllLabels(0, c.req); got != c.want {
			t.Errorf("HasAllLabels(0, %v) = %v, want %v", c.req, got, c.want)
		}
	}
	if g.HasAllLabels(99, nil) {
		t.Error("HasAllLabels on absent vertex must be false")
	}
}

func TestInsertDeleteEdge(t *testing.T) {
	g := New()
	if !g.InsertEdge(1, 7, 2) {
		t.Fatal("first insert should report true")
	}
	if g.InsertEdge(1, 7, 2) {
		t.Fatal("duplicate insert should report false")
	}
	if !g.HasEdge(1, 7, 2) || g.HasEdge(2, 7, 1) || g.HasEdge(1, 8, 2) {
		t.Fatal("HasEdge direction/label confusion")
	}
	if g.NumEdges() != 1 || g.EdgeCount(7) != 1 {
		t.Fatalf("edge counts wrong: %d / %d", g.NumEdges(), g.EdgeCount(7))
	}
	if n := g.OutNeighbors(1, 7); len(n) != 1 || n[0] != 2 {
		t.Fatalf("OutNeighbors = %v", n)
	}
	if n := g.InNeighbors(2, 7); len(n) != 1 || n[0] != 1 {
		t.Fatalf("InNeighbors = %v", n)
	}
	if !g.DeleteEdge(1, 7, 2) {
		t.Fatal("delete of existing edge should report true")
	}
	if g.DeleteEdge(1, 7, 2) {
		t.Fatal("double delete should report false")
	}
	if g.NumEdges() != 0 || g.EdgeCount(7) != 0 || g.HasEdge(1, 7, 2) {
		t.Fatal("edge not fully removed")
	}
	if g.Degree(1) != 0 || g.Degree(2) != 0 {
		t.Fatal("degrees not restored after delete")
	}
}

func TestSelfLoopAndParallelLabels(t *testing.T) {
	g := New()
	if !g.InsertEdge(3, 1, 3) {
		t.Fatal("self loop insert failed")
	}
	if !g.InsertEdge(3, 2, 3) {
		t.Fatal("parallel self loop with different label failed")
	}
	if g.Degree(3) != 4 { // each loop contributes one in and one out
		t.Fatalf("Degree(3) = %d, want 4", g.Degree(3))
	}
	if !g.DeleteEdge(3, 1, 3) {
		t.Fatal("self loop delete failed")
	}
	if !g.HasEdge(3, 2, 3) {
		t.Fatal("other self loop must survive")
	}
}

func TestVerticesWithLabel(t *testing.T) {
	g := New()
	for i := VertexID(0); i < 10; i++ {
		l := Label(i % 2)
		if err := g.AddVertex(i, l); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(g.VerticesWithLabel(0)); n != 5 {
		t.Fatalf("VerticesWithLabel(0) = %d, want 5", n)
	}
	if n := g.CountVerticesWithLabels([]Label{1}); n != 5 {
		t.Fatalf("CountVerticesWithLabels([1]) = %d, want 5", n)
	}
	if n := g.CountVerticesWithLabels(nil); n != 10 {
		t.Fatalf("CountVerticesWithLabels(nil) = %d, want 10", n)
	}
	if n := g.CountVerticesWithLabels([]Label{0, 1}); n != 0 {
		t.Fatalf("CountVerticesWithLabels([0,1]) = %d, want 0", n)
	}
}

func TestEnsureVertexIdempotent(t *testing.T) {
	g := New()
	if err := g.AddVertex(5, 9); err != nil {
		t.Fatal(err)
	}
	g.EnsureVertex(5, 1) // must not change labels
	if !g.HasLabel(5, 9) || g.HasLabel(5, 1) {
		t.Fatal("EnsureVertex must not relabel an existing vertex")
	}
	g.EnsureVertex(6)
	if !g.HasVertex(6) || len(g.Labels(6)) != 0 {
		t.Fatal("EnsureVertex must create unlabeled vertex")
	}
}

func TestClone(t *testing.T) {
	g := New()
	_ = g.AddVertex(0, 1)
	_ = g.AddVertex(1, 2)
	g.InsertEdge(0, 3, 1)
	g.InsertEdge(1, 4, 0)
	c := g.Clone()
	// Mutating the clone must not affect the original.
	c.InsertEdge(0, 5, 1)
	c.DeleteEdge(0, 3, 1)
	if !g.HasEdge(0, 3, 1) || g.HasEdge(0, 5, 1) {
		t.Fatal("clone mutation leaked into original")
	}
	if c.NumEdges() != 2 || g.NumEdges() != 2 {
		t.Fatalf("edge counts: clone=%d orig=%d, want 2/2", c.NumEdges(), g.NumEdges())
	}
	if !c.HasLabel(0, 1) || !c.HasLabel(1, 2) {
		t.Fatal("clone lost vertex labels")
	}
}

func TestForEachEdgeAndVertex(t *testing.T) {
	g := New()
	g.InsertEdge(0, 0, 1)
	g.InsertEdge(1, 1, 2)
	g.InsertEdge(2, 0, 0)
	seen := map[Edge]bool{}
	g.ForEachEdge(func(e Edge) { seen[e] = true })
	if len(seen) != 3 {
		t.Fatalf("ForEachEdge saw %d edges, want 3", len(seen))
	}
	nv := 0
	g.ForEachVertex(func(VertexID) { nv++ })
	if nv != 3 {
		t.Fatalf("ForEachVertex saw %d, want 3", nv)
	}
	if len(g.Edges()) != 3 {
		t.Fatalf("Edges() len = %d, want 3", len(g.Edges()))
	}
}

// TestRandomInsertDeleteInvariants drives random insert/delete sequences and
// checks that counts, adjacency and the edge set stay consistent.
func TestRandomInsertDeleteInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := New()
	ref := map[Edge]bool{}
	for step := 0; step < 5000; step++ {
		e := Edge{
			From:  VertexID(rng.Intn(30)),
			Label: Label(rng.Intn(4)),
			To:    VertexID(rng.Intn(30)),
		}
		if rng.Intn(3) == 0 {
			got := g.DeleteEdge(e.From, e.Label, e.To)
			if got != ref[e] {
				t.Fatalf("step %d: DeleteEdge(%v) = %v, ref %v", step, e, got, ref[e])
			}
			delete(ref, e)
		} else {
			got := g.InsertEdge(e.From, e.Label, e.To)
			if got == ref[e] {
				t.Fatalf("step %d: InsertEdge(%v) = %v but ref presence %v", step, e, got, ref[e])
			}
			ref[e] = true
		}
	}
	if g.NumEdges() != len(ref) {
		t.Fatalf("NumEdges = %d, ref = %d", g.NumEdges(), len(ref))
	}
	for e := range ref {
		if !g.HasEdge(e.From, e.Label, e.To) {
			t.Fatalf("missing edge %v", e)
		}
		found := false
		for _, n := range g.OutNeighbors(e.From, e.Label) {
			if n == e.To {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("edge %v absent from adjacency", e)
		}
	}
	// Per-label edge counts must sum to NumEdges.
	total := 0
	for l := Label(0); l < 4; l++ {
		total += g.EdgeCount(l)
	}
	if total != g.NumEdges() {
		t.Fatalf("sum of per-label counts %d != NumEdges %d", total, g.NumEdges())
	}
}

// Property: inserting then deleting an edge restores HasEdge and counts.
func TestQuickInsertDeleteRoundTrip(t *testing.T) {
	f := func(from, to uint16, l uint8) bool {
		g := New()
		e := Edge{From: VertexID(from), Label: Label(l), To: VertexID(to)}
		before := g.NumEdges()
		if !g.InsertEdge(e.From, e.Label, e.To) {
			return false
		}
		if !g.DeleteEdge(e.From, e.Label, e.To) {
			return false
		}
		return g.NumEdges() == before && !g.HasEdge(e.From, e.Label, e.To)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDictIntern(t *testing.T) {
	d := NewDict()
	a := d.Intern("knows")
	b := d.Intern("likes")
	if a == b {
		t.Fatal("distinct names must intern to distinct labels")
	}
	if d.Intern("knows") != a {
		t.Fatal("Intern must be stable")
	}
	if d.Name(a) != "knows" || d.Name(b) != "likes" {
		t.Fatal("Name round trip failed")
	}
	if _, ok := d.Lookup("nope"); ok {
		t.Fatal("Lookup of unknown name must report false")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Name(Label(999)) == "" {
		t.Fatal("Name of unknown label should return a placeholder")
	}
}
