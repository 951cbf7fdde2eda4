// Package core exercises the eval-readonly reachability rule: graph
// mutations are fine in coordinator methods but not in anything reachable
// from an eval entry point.
package core

import "turboflux/internal/graph"

// Engine owns a private DCG over the shared graph.
type Engine struct {
	g   *graph.Graph
	win *graph.Window
}

// EvalInsertedEdge is an implicit eval entry point; the mutation hides
// two calls down.
func (e *Engine) EvalInsertedEdge(from, to graph.VertexID) {
	e.extend(from, to)
	grow[wide](e, from, to)
}

// extend is an intermediate hop on the eval path.
func (e *Engine) extend(from, to graph.VertexID) {
	if !e.g.HasEdge(from, to) {
		e.repair(from, to)
	}
	if e.visible(from, to) {
		e.record(from, to)
	}
}

// visible reads the graph through the window's view: a read, clean.
func (e *Engine) visible(from, to graph.VertexID) bool {
	return e.g.HasEdge(from, to) && !e.win.Hidden(from, to)
}

// record writes the view other workers are reading: finding.
func (e *Engine) record(from, to graph.VertexID) {
	e.win.Add(from, to)
}

// repair mutates the graph from deep inside the eval path: finding.
func (e *Engine) repair(from, to graph.VertexID) {
	e.g.InsertEdge(from, to)
}

// InsertEdge is the coordinator: mutate-then-eval is the intended shape
// and must not be reported.
func (e *Engine) InsertEdge(from, to graph.VertexID) {
	e.g.InsertEdge(from, to)
	e.EvalInsertedEdge(from, to)
}

// seed is opted in as an eval root and mutates directly: finding.
//
//tf:eval-path
func (e *Engine) seed(v graph.VertexID) {
	e.g.EnsureVertex(v)
}

// rollback mutates but is unreachable from any eval root: clean.
func (e *Engine) rollback(from, to graph.VertexID) {
	e.g.DeleteEdge(from, to)
}

// mode is the type parameter of grow, as core's evaluation modes are.
type mode interface{ ~[1]byte | ~[2]byte }

// wide is one mode.
type wide [2]byte

// grow is a generic hop reached through an explicit instantiation
// (grow[wide]): the reachability walk must see through the index
// expression to the declaration. Finding.
func grow[M mode](e *Engine, from, to graph.VertexID) {
	e.g.InsertEdge(from, to)
}
