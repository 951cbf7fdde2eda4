package turboflux

import (
	"bytes"
	"testing"
)

// singleQuery registers q as the one query "q" of a MultiEngine over g,
// closed when the test ends.
func singleQuery(t *testing.T, g *Graph, q *Query, opt Options) *MultiEngine {
	t.Helper()
	m := NewMultiEngine(g)
	t.Cleanup(func() { m.Close() }) //tf:unchecked-ok test cleanup
	if err := m.Register("q", q, opt); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPublicAPIEndToEnd(t *testing.T) {
	vd, ed := NewDict(), NewDict()
	person := vd.Intern("Person")
	account := vd.Intern("Account")
	owns := ed.Intern("owns")
	pays := ed.Intern("pays")

	g := NewGraph()
	g.EnsureVertex(1, person)
	g.EnsureVertex(2, account)
	g.EnsureVertex(3, account)
	g.InsertEdge(1, owns, 2)

	// u0(Person) -owns-> u1(Account) -pays-> u2(Account)
	q := NewQuery(3)
	q.SetLabels(0, person)
	q.SetLabels(1, account)
	q.SetLabels(2, account)
	if err := q.AddEdge(0, owns, 1); err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(1, pays, 2); err != nil {
		t.Fatal(err)
	}

	var events []string
	eng := singleQuery(t, g, q, Options{
		OnMatch: func(positive bool, m []VertexID) {
			if positive {
				events = append(events, "+")
			} else {
				events = append(events, "-")
			}
		},
	})
	if n := eng.InitialMatches()["q"]; n != 0 {
		t.Fatalf("initial = %d", n)
	}
	counts, err := eng.Insert(2, pays, 3)
	if err != nil {
		t.Fatal(err)
	}
	if counts["q"] != 1 {
		t.Fatalf("insert matches = %d, want 1", counts["q"])
	}
	counts, err = eng.Delete(1, owns, 2)
	if err != nil {
		t.Fatal(err)
	}
	if counts["q"] != 1 {
		t.Fatalf("delete matches = %d, want 1", counts["q"])
	}
	st := eng.Stats()["q"]
	if st.PositiveMatches != 1 || st.NegativeMatches != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.IntermediateBytes < 0 || st.DCGEdges < 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(events) != 2 || events[0] != "+" || events[1] != "-" {
		t.Fatalf("events = %v", events)
	}
	if eng.Graph().NumEdges() != 1 {
		t.Fatalf("graph edges = %d", eng.Graph().NumEdges())
	}
}

func TestPublicAPIIsomorphism(t *testing.T) {
	g := NewGraph()
	g.InsertEdge(0, 1, 1)
	q := NewQuery(3)
	_ = q.AddEdge(0, 1, 1)
	_ = q.AddEdge(1, 1, 2)
	eng := singleQuery(t, g, q, Options{Semantics: Isomorphism})
	// 1 -> 0 closes a 2-cycle: homomorphism would find 0,1,0 and 1,0,1;
	// isomorphism finds none.
	counts, err := eng.Insert(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if counts["q"] != 0 {
		t.Fatalf("iso matches = %d, want 0", counts["q"])
	}
}

func TestPublicAPIStreamRoundTrip(t *testing.T) {
	ups := []Update{
		DeclareVertex(7, 1),
		Insert(7, 0, 8),
		Delete(7, 0, 8),
	}
	var buf bytes.Buffer
	if err := EncodeStream(&buf, ups); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1].Edge != ups[1].Edge {
		t.Fatalf("round trip = %+v", got)
	}
	g := NewGraph()
	q := NewQuery(2)
	_ = q.AddEdge(0, 0, 1)
	eng := singleQuery(t, g, q, Options{})
	counts, err := eng.ApplyBatch(got)
	if err != nil {
		t.Fatal(err)
	}
	if counts["q"] != 2 { // one positive for the insert, one negative for the delete
		t.Fatalf("ApplyBatch total = %d, want 2", counts["q"])
	}
}

func TestParseQueryEndToEnd(t *testing.T) {
	vd, ed := NewDict(), NewDict()
	q, names, err := ParseQuery("MATCH (a:Person)-[:pays]->(b:Person)", vd, ed)
	if err != nil {
		t.Fatal(err)
	}
	person, _ := vd.Lookup("Person")
	pays, _ := ed.Lookup("pays")
	g := NewGraph()
	g.EnsureVertex(1, person)
	g.EnsureVertex(2, person)
	eng := singleQuery(t, g, q, Options{})
	counts, err := eng.Insert(1, pays, 2)
	if err != nil {
		t.Fatal(err)
	}
	if counts["q"] != 1 {
		t.Fatalf("matches = %d, want 1", counts["q"])
	}
	if _, ok := names["a"]; !ok {
		t.Fatal("names missing a")
	}
	if _, _, err := ParseQuery("(a)-[", vd, ed); err == nil {
		t.Fatal("bad pattern must error")
	}
}
