package mqo

import (
	"testing"

	"turboflux/internal/graph"
	"turboflux/internal/query"
)

// buildTree builds the query tree the way the multi-query layer does.
func buildTree(t *testing.T, q *query.Graph, root graph.VertexID) *query.Tree {
	t.Helper()
	g := graph.New()
	tree, err := query.TransformToTree(q, root, g)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestKeyOfSharesAcrossNonTreeEdges(t *testing.T) {
	// Path query u0 -a-> u1 -b-> u2.
	mk := func(extra bool) (*query.Graph, *query.Tree) {
		q := query.NewGraph(3)
		q.SetLabels(0, 0)
		q.SetLabels(1, 1)
		q.SetLabels(2, 1)
		if err := q.AddEdge(0, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := q.AddEdge(1, 1, 2); err != nil {
			t.Fatal(err)
		}
		if extra {
			// Closing edge u0 -c-> u2: heavier label stays non-tree on an
			// empty graph (estimates tie, tree greedily keeps declaration
			// order), so the spanning tree is unchanged.
			if err := q.AddEdge(0, 2, 2); err != nil {
				t.Fatal(err)
			}
		}
		tree := buildTree(t, q, 0)
		return q, tree
	}
	q1, t1 := mk(false)
	q2, t2 := mk(true)
	if len(t2.NonTree) != 1 {
		t.Fatalf("closing edge should be non-tree, got %v", t2.NonTree)
	}
	if KeyOf(q1, t1) != KeyOf(q2, t2) {
		t.Fatalf("keys must match across non-tree differences:\n%q\n%q", KeyOf(q1, t1), KeyOf(q2, t2))
	}
}

func TestKeyOfDiscriminates(t *testing.T) {
	base := func() *query.Graph {
		q := query.NewGraph(2)
		q.SetLabels(0, 0)
		q.SetLabels(1, 1)
		return q
	}
	q1 := base()
	if err := q1.AddEdge(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	k1 := KeyOf(q1, buildTree(t, q1, 0))

	// Different edge label.
	q2 := base()
	if err := q2.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if KeyOf(q2, buildTree(t, q2, 0)) == k1 {
		t.Fatal("edge label must discriminate")
	}

	// Different direction.
	q3 := base()
	if err := q3.AddEdge(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if KeyOf(q3, buildTree(t, q3, 0)) == k1 {
		t.Fatal("edge direction must discriminate")
	}

	// Different vertex labels.
	q4 := query.NewGraph(2)
	q4.SetLabels(0, 0)
	q4.SetLabels(1, 2)
	if err := q4.AddEdge(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if KeyOf(q4, buildTree(t, q4, 0)) == k1 {
		t.Fatal("vertex labels must discriminate")
	}

	// Different root.
	if KeyOf(q1, buildTree(t, q1, 1)) == k1 {
		t.Fatal("root must discriminate")
	}
}
