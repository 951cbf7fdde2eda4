package turboflux_test

import (
	"fmt"

	"turboflux"
)

// The basic loop: load g0, register a query, stream updates, get matches.
func ExampleEngine() {
	const person, account turboflux.Label = 0, 1
	const owns, pays turboflux.Label = 0, 1

	g := turboflux.NewGraph()
	g.EnsureVertex(1, person)
	g.EnsureVertex(10, account)
	g.EnsureVertex(20, account)
	g.InsertEdge(1, owns, 10)

	q := turboflux.NewQuery(3)
	q.SetLabels(0, person)
	q.SetLabels(1, account)
	q.SetLabels(2, account)
	_ = q.AddEdge(0, owns, 1)
	_ = q.AddEdge(1, pays, 2)

	eng, _ := turboflux.NewEngine(g, q, turboflux.Options{
		OnMatch: func(positive bool, m []turboflux.VertexID) {
			fmt.Printf("positive=%v person=%d account=%d payee=%d\n",
				positive, m[0], m[1], m[2])
		},
	})
	_, _ = eng.Insert(10, pays, 20)
	_, _ = eng.Delete(10, pays, 20)
	// Output:
	// positive=true person=1 account=10 payee=20
	// positive=false person=1 account=10 payee=20
}

// Queries can be written as Cypher-like patterns.
func ExampleParseQuery() {
	vd, ed := turboflux.NewDict(), turboflux.NewDict()
	q, names, err := turboflux.ParseQuery(
		"MATCH (a:Person)-[:follows]->(b:Person), (b)-[:follows]->(a)", vd, ed)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("vertices:", q.NumVertices(), "edges:", q.NumEdges())
	fmt.Println("a is query vertex", names["a"])
	// Output:
	// vertices: 2 edges: 2
	// a is query vertex 0
}

// Several queries can share one data graph through a MultiEngine.
func ExampleMultiEngine() {
	m := turboflux.NewMultiEngine(turboflux.NewGraph())

	q1 := turboflux.NewQuery(2)
	_ = q1.AddEdge(0, 1, 1)
	_ = m.Register("pair", q1, turboflux.Options{})

	q2 := turboflux.NewQuery(3)
	_ = q2.AddEdge(0, 1, 1)
	_ = q2.AddEdge(1, 1, 2)
	_ = m.Register("chain", q2, turboflux.Options{})

	counts, _ := m.Insert(1, 1, 2)
	fmt.Println("after first edge:", counts["pair"], counts["chain"])
	counts, _ = m.Insert(2, 1, 3)
	fmt.Println("after second edge:", counts["pair"], counts["chain"])
	// Output:
	// after first edge: 1 0
	// after second edge: 1 1
}
