package dcg

import (
	"testing"

	"turboflux/internal/graph"
	"turboflux/internal/query"
)

// newPathQuery builds an unlabeled path query u0 -l-> u1 -l-> ... of the
// given length (number of edges).
func newPathQuery(t *testing.T, edges int, l graph.Label) *query.Graph {
	t.Helper()
	q := query.NewGraph(edges + 1)
	for i := 0; i < edges; i++ {
		if err := q.AddEdge(graph.VertexID(i), l, graph.VertexID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return q
}

// everyLabel is the data graph of the unit tests that drive arbitrary
// (v, u', v') triples: vertices 0..2047 all carry every vertex label of the
// paper fixture, so their blocks hold every role a query vertex can have.
var everyLabel = func() *graph.Graph {
	g := graph.New()
	for v := graph.VertexID(0); v < 2048; v++ {
		if err := g.AddVertex(v, lA, lB, lC, lD); err != nil {
			panic(err)
		}
	}
	return g
}()

func mustTree(t *testing.T, q *query.Graph, root graph.VertexID, g *graph.Graph) *query.Tree {
	t.Helper()
	tr, err := query.TransformToTree(q, root, g)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
