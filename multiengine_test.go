package turboflux

import (
	"errors"
	"strings"
	"testing"
)

// multiFixture: labels — 0:Person 1:Account; edges — 0:owns 1:pays 2:knows.
func multiFixture(t *testing.T) (*MultiEngine, map[string]*[]string) {
	t.Helper()
	g := NewGraph()
	g.EnsureVertex(1, 0)
	g.EnsureVertex(2, 0)
	g.EnsureVertex(10, 1)
	g.EnsureVertex(20, 1)
	g.InsertEdge(1, 0, 10)

	m := NewMultiEngine(g)
	events := map[string]*[]string{}
	reg := func(name string, q *Query) {
		t.Helper()
		ev := &[]string{}
		events[name] = ev
		err := m.Register(name, q, Options{
			OnMatch: func(positive bool, _ []VertexID) {
				if positive {
					*ev = append(*ev, "+")
				} else {
					*ev = append(*ev, "-")
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// payment: Person -owns-> Account -pays-> Account.
	qPay := NewQuery(3)
	qPay.SetLabels(0, 0)
	qPay.SetLabels(1, 1)
	qPay.SetLabels(2, 1)
	_ = qPay.AddEdge(0, 0, 1)
	_ = qPay.AddEdge(1, 1, 2)
	reg("payment", qPay)
	// social: Person -knows-> Person.
	qKnow := NewQuery(2)
	qKnow.SetLabels(0, 0)
	qKnow.SetLabels(1, 0)
	_ = qKnow.AddEdge(0, 2, 1)
	reg("social", qKnow)
	return m, events
}

func TestMultiEngineFanOut(t *testing.T) {
	m, events := multiFixture(t)
	if got := m.Queries(); len(got) != 2 || got[0] != "payment" || got[1] != "social" {
		t.Fatalf("Queries = %v", got)
	}
	init := m.InitialMatches()
	if init["payment"] != 0 || init["social"] != 0 {
		t.Fatalf("initial = %v", init)
	}

	// A payment edge triggers only the payment query.
	counts, err := m.Insert(10, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if counts["payment"] != 1 || counts["social"] != 0 {
		t.Fatalf("counts = %v", counts)
	}
	// A knows edge triggers only the social query.
	counts, err = m.Insert(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if counts["social"] != 1 || counts["payment"] != 0 {
		t.Fatalf("counts = %v", counts)
	}
	// Deleting the owns edge retracts the payment match only.
	counts, err = m.Delete(1, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if counts["payment"] != 1 {
		t.Fatalf("delete counts = %v", counts)
	}
	if got := *events["payment"]; len(got) != 2 || got[0] != "+" || got[1] != "-" {
		t.Fatalf("payment events = %v", got)
	}
	if got := *events["social"]; len(got) != 1 || got[0] != "+" {
		t.Fatalf("social events = %v", got)
	}
	st := m.Stats()
	if st["payment"].PositiveMatches != 1 || st["payment"].NegativeMatches != 1 {
		t.Fatalf("payment stats = %+v", st["payment"])
	}
	if m.Graph().NumEdges() != 2 {
		t.Fatalf("graph edges = %d", m.Graph().NumEdges())
	}
}

func TestMultiEngineDuplicateAndUnregister(t *testing.T) {
	m, _ := multiFixture(t)
	q := NewQuery(2)
	_ = q.AddEdge(0, 2, 1)
	if err := m.Register("payment", q, Options{}); err == nil {
		t.Fatal("duplicate name must fail")
	}
	if !m.Unregister("social") {
		t.Fatal("Unregister existing must succeed")
	}
	if m.Unregister("social") {
		t.Fatal("Unregister twice must fail")
	}
	// After unregistering, social no longer reports.
	counts, err := m.Insert(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 0 {
		t.Fatalf("counts after unregister = %v", counts)
	}
	if err := m.Register("bad", NewQuery(0), Options{}); err == nil {
		t.Fatal("invalid query must fail")
	}
}

func TestMultiEngineReRegisterSameName(t *testing.T) {
	m, _ := multiFixture(t)
	if !m.Unregister("social") {
		t.Fatal("Unregister existing must succeed")
	}
	// The freed name is immediately reusable, and the replacement query
	// starts from the current graph, not the original registration's g0.
	q := NewQuery(2)
	q.SetLabels(0, 0)
	q.SetLabels(1, 0)
	_ = q.AddEdge(0, 2, 1)
	var got []string
	if err := m.Register("social", q, Options{
		OnMatch: func(positive bool, _ []VertexID) {
			if positive {
				got = append(got, "+")
			} else {
				got = append(got, "-")
			}
		},
	}); err != nil {
		t.Fatalf("re-register freed name: %v", err)
	}
	if queries := m.Queries(); len(queries) != 2 || queries[1] != "social" {
		t.Fatalf("Queries after re-register = %v", queries)
	}
	counts, err := m.Insert(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if counts["social"] != 1 || len(got) != 1 || got[0] != "+" {
		t.Fatalf("re-registered query inert: counts=%v events=%v", counts, got)
	}
}

func TestMultiEngineFanOutError(t *testing.T) {
	m, _ := multiFixture(t)
	// A starved query makes the fan-out fail with the query's name in the
	// error; queries evaluated before it keep their results.
	if _, err := m.Insert(1, 0, 20); err != nil { // Person 1 owns a second account
		t.Fatal(err)
	}
	// Person -knows-> Person, the first also owning an Account: the knows
	// edge below completes one match per account of 1, two against a cap of
	// one.
	q := NewQuery(3)
	q.SetLabels(0, 0)
	q.SetLabels(1, 0)
	q.SetLabels(2, 1)
	_ = q.AddEdge(0, 2, 1)
	_ = q.AddEdge(0, 0, 2)
	if err := m.Register("starved", q, Options{WorkBudget: 1}); err != nil {
		t.Fatal(err)
	}
	counts, err := m.Insert(1, 2, 2)
	if err == nil {
		t.Fatal("starved query must abort the update")
	}
	if !errors.Is(err, ErrWorkBudget) {
		t.Fatalf("err = %v, want ErrWorkBudget", err)
	}
	if !strings.Contains(err.Error(), `"starved"`) {
		t.Fatalf("err = %v, want the failing query's name", err)
	}
	// payment and social are registered before starved, so their
	// evaluation completed; the partial counts are returned.
	if counts["social"] != 1 {
		t.Fatalf("partial counts = %v; earlier queries' results lost", counts)
	}
}

func TestMultiEngineNoOps(t *testing.T) {
	m, _ := multiFixture(t)
	// Duplicate insert and absent delete are no-ops across all queries.
	if counts, err := m.Insert(1, 0, 10); err != nil || counts != nil {
		t.Fatalf("dup insert: %v %v", counts, err)
	}
	if counts, err := m.Delete(9, 9, 9); err != nil || counts != nil {
		t.Fatalf("absent delete: %v %v", counts, err)
	}
	if _, err := m.Apply(Update{Op: 99}); err == nil {
		t.Fatal("unknown op must error")
	}
}

func TestMultiEngineVertexDeclaration(t *testing.T) {
	m, _ := multiFixture(t)
	// Declare a new Person mid-stream; it must become a usable candidate
	// for both queries.
	if _, err := m.Apply(DeclareVertex(3, 0)); err != nil {
		t.Fatal(err)
	}
	counts, err := m.Insert(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if counts["social"] != 1 {
		t.Fatalf("counts = %v; new vertex not wired into DCGs", counts)
	}
	// Declaring the same vertex again is a no-op.
	if _, err := m.Apply(DeclareVertex(3, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestMultiEngineRegisterMidStream(t *testing.T) {
	m, _ := multiFixture(t)
	if _, err := m.Insert(10, 1, 20); err != nil {
		t.Fatal(err)
	}
	// A query registered after updates sees the current graph as its g0.
	q := NewQuery(3)
	q.SetLabels(0, 0)
	q.SetLabels(1, 1)
	q.SetLabels(2, 1)
	_ = q.AddEdge(0, 0, 1)
	_ = q.AddEdge(1, 1, 2)
	var late int64
	if err := m.Register("late", q, Options{
		OnMatch: func(positive bool, _ []VertexID) { late++ },
	}); err != nil {
		t.Fatal(err)
	}
	init := m.InitialMatches()
	if init["late"] != 1 {
		t.Fatalf("late initial = %v", init)
	}
}
