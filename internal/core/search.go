package core

import (
	"turboflux/internal/dcg"
	"turboflux/internal/graph"
)

// subgraphSearch is Algorithm 7: a backtracking homomorphism (or
// isomorphism) search along the matching order that enumerates candidate
// data vertices through EXPLICIT DCG edges only. Query vertices premapped
// by the upward traversals are validated rather than enumerated; completed
// mappings are reported through Engine.report, which applies duplicate
// avoidance against the current trigger edge.
//
//tf:hotpath
func (e *Engine) subgraphSearch(dc int) {
	if e.censored {
		return
	}
	if dc == len(e.mo) {
		e.report()
		return
	}
	u := e.mo[dc]
	var vp graph.VertexID
	if u == e.tree.Root {
		vp = graph.NoVertex
	} else {
		vp = e.m[e.tree.ParentEdge[u].Parent]
	}
	if v := e.m[u]; v != graph.NoVertex {
		// Premapped (the trigger endpoints and the climbed ancestor chain).
		if e.d.GetState(vp, u, v) != dcg.Explicit {
			return
		}
		if e.isJoinable(u, v) {
			e.subgraphSearch(dc + 1)
		}
		return
	}
	if u == e.tree.Root {
		// Only reachable when the search is run without a premapped root.
		for _, v := range e.d.RootCandidates(true) {
			e.tryCandidate(u, v, dc)
		}
		return
	}
	// Candidates come straight from the DCG-owned out-adjacency slice. The
	// search phase applies no DCG transitions, so the slice is stable for
	// the duration of the loop; iterating it directly avoids allocating a
	// visitor closure at every search node.
	for _, v := range e.d.ExplicitChildrenList(vp, u) {
		if e.censored {
			return
		}
		e.tryCandidate(u, v, dc)
	}
}

//tf:hotpath
func (e *Engine) tryCandidate(u, v graph.VertexID, dc int) {
	if !e.usable(v) {
		return
	}
	if !e.isJoinable(u, v) {
		return
	}
	e.mapVertex(u, v)
	e.subgraphSearch(dc + 1)
	e.unmapVertex(u)
}

// isJoinable checks that every non-tree query edge between u and an
// already-mapped query vertex has a corresponding data edge when u maps to
// v (IsJoinable in Algorithm 7; the total-order duplicate check moved to
// report time, see Engine.report).
//
//tf:hotpath
func (e *Engine) isJoinable(u, v graph.VertexID) bool {
	for _, nt := range e.tree.NonTreeAt[u] {
		qe := e.q.Edge(nt)
		switch {
		case qe.From == u && qe.To == u:
			if !e.hasEdge(v, qe.Label, v) {
				return false
			}
		case qe.From == u:
			if w := e.m[qe.To]; w != graph.NoVertex && !e.hasEdge(v, qe.Label, w) {
				return false
			}
		default: // qe.To == u
			if w := e.m[qe.From]; w != graph.NoVertex && !e.hasEdge(w, qe.Label, v) {
				return false
			}
		}
	}
	return true
}
