// Package graph is a stub of the data graph: the mutator/reader split is
// what the eval-readonly analyzer keys on.
package graph

// VertexID identifies a vertex.
type VertexID uint32

// Graph is the shared data graph.
type Graph struct {
	n int
}

// InsertEdge mutates the graph.
func (g *Graph) InsertEdge(from, to VertexID) bool {
	g.n++
	return true
}

// DeleteEdge mutates the graph.
func (g *Graph) DeleteEdge(from, to VertexID) bool {
	g.n--
	return true
}

// EnsureVertex mutates the graph.
func (g *Graph) EnsureVertex(v VertexID) {
	g.n++
}

// HasEdge is a pure read.
func (g *Graph) HasEdge(from, to VertexID) bool {
	return false
}

// NumEdges is a pure read.
func (g *Graph) NumEdges() int { return g.n }

// Window is the versioned view engines read the graph through inside an
// evaluation window.
type Window struct {
	n int
}

// Add mutates the view.
func (w *Window) Add(from, to VertexID) { w.n++ }

// Hidden is a pure read.
func (w *Window) Hidden(from, to VertexID) bool { return w.n < 0 }
