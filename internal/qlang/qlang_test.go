package qlang

import (
	"strings"
	"testing"

	"turboflux/internal/graph"
)

func dicts() (*graph.Dict, *graph.Dict) {
	return graph.NewDict(), graph.NewDict()
}

func TestParseChain(t *testing.T) {
	vd, ed := dicts()
	q, names, err := Parse("MATCH (a:Person)-[:follows]->(b:Person)-[:likes]->(p:Post)", vd, ed)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices() != 3 || q.NumEdges() != 2 {
		t.Fatalf("shape %d/%d", q.NumVertices(), q.NumEdges())
	}
	person, _ := vd.Lookup("Person")
	post, _ := vd.Lookup("Post")
	if ls := q.Labels(names["a"]); len(ls) != 1 || ls[0] != person {
		t.Fatalf("a labels = %v", ls)
	}
	if ls := q.Labels(names["p"]); len(ls) != 1 || ls[0] != post {
		t.Fatalf("p labels = %v", ls)
	}
	follows, _ := ed.Lookup("follows")
	if e := q.Edge(0); e.From != names["a"] || e.To != names["b"] || e.Label != follows {
		t.Fatalf("edge 0 = %v", e)
	}
}

func TestParseReverseEdge(t *testing.T) {
	vd, ed := dicts()
	q, names, err := Parse("(a)<-[:owns]-(b)", vd, ed)
	if err != nil {
		t.Fatal(err)
	}
	owns, _ := ed.Lookup("owns")
	if e := q.Edge(0); e.From != names["b"] || e.To != names["a"] || e.Label != owns {
		t.Fatalf("reverse edge = %v", e)
	}
}

func TestParseMultiChainAndReuse(t *testing.T) {
	vd, ed := dicts()
	src := `MATCH (a:Person)-[:follows]->(b:Person),
	        (b)-[:likes]->(p:Post),
	        (a)-[:likes]->(p)`
	q, names, err := Parse(src, vd, ed)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices() != 3 || q.NumEdges() != 3 {
		t.Fatalf("shape %d/%d, names %v", q.NumVertices(), q.NumEdges(), names)
	}
}

func TestParseMultiLabel(t *testing.T) {
	vd, ed := dicts()
	q, names, err := Parse("(a:Person|Admin)-[:manages]->(b)", vd, ed)
	if err != nil {
		t.Fatal(err)
	}
	if ls := q.Labels(names["a"]); len(ls) != 2 {
		t.Fatalf("labels = %v", ls)
	}
	if ls := q.Labels(names["b"]); len(ls) != 0 {
		t.Fatalf("b must be unconstrained, got %v", ls)
	}
}

func TestParseAnonymousNodes(t *testing.T) {
	vd, ed := dicts()
	q, names, err := Parse("()-[:x]->()-[:x]->()", vd, ed)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices() != 3 || len(names) != 0 {
		t.Fatalf("anon: %d vertices, names %v", q.NumVertices(), names)
	}
}

func TestParseSelfLoop(t *testing.T) {
	vd, ed := dicts()
	q, _, err := Parse("(a)-[:x]->(b), (b)-[:loop]->(b)", vd, ed)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumEdges() != 2 {
		t.Fatalf("edges = %d", q.NumEdges())
	}
	e := q.Edge(1)
	if e.From != e.To {
		t.Fatalf("self loop = %v", e)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"(a",
		"(a)(b)",
		"(a)-[:x]->",
		"(a)-[x]->(b)",
		"(a)-[:]->(b)",
		"(a)-[:x]-(b)",
		"(a)-[:x]->(b), (c)-[:x]->(d), (e)", // (e) disconnected single chain... actually (e) is parsed; disconnected caught by Validate
		"(a:)->(b)",
		"(a)-[:x]->(a:Person)", // relabel on reuse
		"(a)<-[:x](b)",
		"MATCHY (a)-[:x]->(b)",
	}
	for _, src := range cases {
		vd, ed := dicts()
		if _, _, err := Parse(src, vd, ed); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseDisconnectedRejected(t *testing.T) {
	vd, ed := dicts()
	_, _, err := Parse("(a)-[:x]->(b), (c)-[:x]->(d)", vd, ed)
	if err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseMatchKeywordOptionalAndCaseInsensitive(t *testing.T) {
	for _, src := range []string{
		"match (a)-[:x]->(b)",
		"MATCH (a)-[:x]->(b)",
		"(a)-[:x]->(b)",
	} {
		vd, ed := dicts()
		if _, _, err := Parse(src, vd, ed); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
	// An identifier starting with "match" must not be eaten as the keyword.
	vd, ed := dicts()
	if _, _, err := Parse("(matcher)-[:x]->(b)", vd, ed); err != nil {
		t.Errorf("matcher ident: %v", err)
	}
}

func TestDictReuseAcrossParses(t *testing.T) {
	vd, ed := dicts()
	q1, _, err := Parse("(a:Person)-[:follows]->(b:Person)", vd, ed)
	if err != nil {
		t.Fatal(err)
	}
	q2, _, err := Parse("(x:Person)-[:follows]->(y)", vd, ed)
	if err != nil {
		t.Fatal(err)
	}
	// Same label names must intern to the same Labels.
	if q1.Edge(0).Label != q2.Edge(0).Label {
		t.Fatal("edge labels not shared across parses")
	}
	if q1.Labels(0)[0] != q2.Labels(0)[0] {
		t.Fatal("vertex labels not shared across parses")
	}
}

// TestCheckNumeric pins which names a numeric dictionary refuses, in a
// pattern (CheckLabels) or alone (CheckLabel): decimal names outside its
// pre-interned "0".."255", in either namespace, and nothing for a
// dictionary that does not start with those labels.
func TestCheckNumeric(t *testing.T) {
	recovered := graph.NumericDict()
	recovered.Intern("Person") // a numeric dictionary after a LABEL request
	for _, c := range []struct {
		pattern string
		vd, ed  *graph.Dict
		refused string
	}{
		{"(a:0)-[:255]->(b:Person)", graph.NumericDict(), graph.NumericDict(), ""},
		{"(a:x300)-[:_7]->(b:1)", graph.NumericDict(), graph.NumericDict(), ""},
		{"(a:300)-[:1]->(b:2)", graph.NumericDict(), graph.NumericDict(), "300"},
		{"(a:1|007)-[:1]->(b:2)", recovered, graph.NumericDict(), "007"},
		{"(a:1)-[:256]->(b:2)", graph.NumericDict(), graph.NumericDict(), "256"},
		{"(a:1)-[:256]->(b:2)", graph.NumericDict(), graph.NewDict(), ""},
		{"(a:300)-[:007]->(b:2)", graph.NewDict(), graph.NewDict(), ""},
	} {
		vn, en := c.vd.Len(), c.ed.Len()
		err := CheckLabels(c.pattern, c.vd, c.ed)
		switch {
		case c.refused == "" && err != nil:
			t.Errorf("%s: %v", c.pattern, err)
		case c.refused != "" && (err == nil || !strings.Contains(err.Error(), `"`+c.refused+`"`)):
			t.Errorf("%s: %v, want %q refused", c.pattern, err, c.refused)
		}
		if c.vd.Len() != vn || c.ed.Len() != en {
			t.Errorf("%s: CheckLabels interned a label", c.pattern)
		}
	}
	if err := CheckLabels("(a:1)-[:2]->", graph.NumericDict(), graph.NumericDict()); err == nil {
		t.Error("CheckLabels accepted a pattern that does not parse")
	}
	for name, refused := range map[string]bool{"255": false, "Person": false, "300": true, "007": true} {
		if err := CheckLabel(name, recovered); (err != nil) != refused {
			t.Errorf("CheckLabel(%q) on a numeric dictionary: %v, want refused=%v", name, err, refused)
		}
	}
	if err := CheckLabel("300", graph.NewDict()); err != nil {
		t.Errorf("CheckLabel(\"300\") on a named dictionary: %v", err)
	}
}
