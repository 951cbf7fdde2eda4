package core

import "turboflux/internal/graph"

// SetView makes the engine read the data graph as of the update at batch
// index at of evaluation window w (graph.Window): the window's later
// insertions and earlier deletions are in the graph but hidden from it. A
// multi-query coordinator calls it before each Eval*/Maintain* call of a
// window; a nil w — a window of one update, or no window at all — reads
// the graph as stored.
//
// Every adjacency read of the maintenance and backtracking-search paths
// goes through the view. The two readers that do not — the WCO join, whose
// emission order is the stored adjacency order, and the NaiveEL rebuild —
// belong to harness-only configurations that no multi-query coordinator
// builds.
func (e *Engine) SetView(w *graph.Window, at int32) {
	e.win, e.at = w, at
}

// neighbors returns the stored neighbours of v through edge label l —
// targets when forward, sources otherwise — and whether the list may hold
// edges the view hides: if so the caller skips the neighbours hides
// reports, inline in its loop (the loops recurse, so there is no filtered
// copy to keep).
//
//tf:hotpath
func (e *Engine) neighbors(v graph.VertexID, l graph.Label, forward bool) (nbrs []graph.VertexID, probe bool) {
	if forward {
		nbrs = e.g.OutNeighbors(v, l)
	} else {
		nbrs = e.g.InNeighbors(v, l)
	}
	return nbrs, e.win != nil && e.win.MayHide(v, l)
}

// hides reports whether the view hides the stored edge between v and its
// neighbour w from a list neighbors returned with probe set.
//
//tf:hotpath
func (e *Engine) hides(v graph.VertexID, l graph.Label, w graph.VertexID, forward bool) bool {
	if !forward {
		v, w = w, v
	}
	return e.win.Hidden(graph.Edge{From: v, Label: l, To: w}, e.at)
}

// hasEdge reports whether edge (from, l, to) exists in the engine's view
// of the data graph.
//
//tf:hotpath
func (e *Engine) hasEdge(from graph.VertexID, l graph.Label, to graph.VertexID) bool {
	if !e.g.HasEdge(from, l, to) {
		return false
	}
	return e.win == nil || !e.win.MayHide(from, l) ||
		!e.win.Hidden(graph.Edge{From: from, Label: l, To: to}, e.at)
}
