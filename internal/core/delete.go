package core

import (
	"turboflux/internal/dcg"
	"turboflux/internal/graph"
)

// deleteEdgeAndEval is Algorithm 8: the edge (v, l, v2) is about to be
// deleted from the data graph (the engine removes it after this returns).
// For every tree query edge it matches, negative matches are reported by
// climbing upward through the still-intact explicit structure
// (ClearUpwardsAndEval applies Transition 4 after the searches), and then
// the DCG subtree hanging off the edge is cleared (Transitions 3 and 5).
// Non-tree matches seed transition-free upward traversals.
//
//tf:hotpath
func (e *Engine) deleteEdgeAndEval(v graph.VertexID, l graph.Label, v2 graph.VertexID) {
	for _, ucv := range e.treeSlots(l) {
		te := e.tree.ParentEdge[ucv]
		parentV, childV := v, v2
		if !te.Forward {
			parentV, childV = v2, v
		}
		if !e.d.HasInLabel(parentV, te.Parent) {
			continue // Case 2 of Transition 0
		}
		if !e.g.HasAllLabels(parentV, e.q.Labels(te.Parent)) ||
			!e.g.HasAllLabels(childV, e.q.Labels(ucv)) {
			continue // Case 1 of Transition 0
		}
		if e.d.GetState(parentV, ucv, childV) == dcg.Explicit {
			if e.d.MatchAllChildren(parentV, te.Parent) {
				e.setTrigger(te.Index)
				e.mapVertex(ucv, childV)
				e.clearUpwardsAndEval(te.Parent, parentV, ucv, true, true)
				e.unmapVertex(ucv)
				e.clearTrigger()
			}
		}
		e.clearDCG(ucv, parentV, childV)
	}

	// Non-tree query edges (Algorithm 8, Lines 11–18). Tree-edge clearing
	// above may already have destroyed state these solutions would need;
	// duplicate avoidance assigns each such solution to its minimum-rank
	// trigger, and tree triggers rank below non-tree triggers, so any
	// solution lost here was already reported by a tree trigger.
	e.deleteNonTreeTriggers(v, l, v2)
}

// deleteNonTreeTriggers runs the non-tree trigger loop of Algorithm 8
// (Lines 11–18): transition-free upward climbs reporting negatives.
// Identical for private evaluation and shared-member replay — non-tree
// triggers never modify the DCG.
//
//tf:hotpath
func (e *Engine) deleteNonTreeTriggers(v graph.VertexID, l graph.Label, v2 graph.VertexID) {
	for _, nt := range e.nonTreeSlots(l) {
		qe := e.q.Edge(nt)
		if !e.d.HasInLabel(v, qe.From) || !e.d.HasInLabel(v2, qe.To) {
			continue
		}
		if !e.d.MatchAllChildren(v, qe.From) || !e.d.MatchAllChildren(v2, qe.To) {
			continue
		}
		e.setTrigger(nt)
		if qe.To == qe.From {
			if v == v2 {
				e.clearUpwardsAndEval(qe.From, v, graph.NoVertex, false, true)
			}
		} else if e.usable(v2) {
			e.mapVertex(qe.To, v2)
			e.clearUpwardsAndEval(qe.From, v, graph.NoVertex, false, true)
			e.unmapVertex(qe.To)
		}
		e.clearTrigger()
	}
}

// replayBeforeDelete is the shared-member twin of deleteEdgeAndEval
// (DESIGN.md §17): it runs BEFORE the DCG's owner applies any clearing,
// against the still-intact shared DCG, climbing transition-free
// (uChild=NoVertex disables Transition 4) and never calling clearDCG.
// The intact state is a superset of every mid-clearing view a private
// engine would have seen, so every privately-reported negative is
// enumerated here; any extra solution reachable only through state a
// private engine had already destroyed necessarily maps the deleted
// edge at a lower-rank trigger (the destroyed state's support chain
// leads to the deleted edge) and is suppressed by the min-rank
// duplicate check.
//
//tf:hotpath
func (e *Engine) replayBeforeDelete(v graph.VertexID, l graph.Label, v2 graph.VertexID) {
	for _, ucv := range e.treeSlots(l) {
		te := e.tree.ParentEdge[ucv]
		parentV, childV := v, v2
		if !te.Forward {
			parentV, childV = v2, v
		}
		if !e.d.HasInLabel(parentV, te.Parent) {
			continue
		}
		if !e.g.HasAllLabels(parentV, e.q.Labels(te.Parent)) ||
			!e.g.HasAllLabels(childV, e.q.Labels(ucv)) {
			continue
		}
		if e.d.GetState(parentV, ucv, childV) == dcg.Explicit &&
			e.d.MatchAllChildren(parentV, te.Parent) {
			e.setTrigger(te.Index)
			e.mapVertex(ucv, childV)
			e.clearUpwardsAndEval(te.Parent, parentV, graph.NoVertex, false, true)
			e.unmapVertex(ucv)
			e.clearTrigger()
		}
	}
	e.deleteNonTreeTriggers(v, l, v2)
}

// clearUpwardsAndEval is Algorithm 9: map u to v, climb v's incoming
// EXPLICIT edges labeled u toward the starting vertices, run
// SubgraphSearch to report negative matches at the root, and — only after
// the recursion under each parent finishes — apply Transition 4 (EXPLICIT
// → IMPLICIT) to the climbed edge when the deleted edge was v's last
// explicit support for child label uChild. uChild is graph.NoVertex for
// non-tree triggers, which never transition.
//
//tf:hotpath
func (e *Engine) clearUpwardsAndEval(u graph.VertexID, v graph.VertexID, uChild graph.VertexID, transit, searchable bool) {
	mapped := false
	if searchable {
		switch {
		case e.m[u] == v:
		case e.m[u] != graph.NoVertex || !e.usable(v):
			// Mapping conflict: no negatives along this path, but the
			// Transition 4 downgrades are semantics-independent and must
			// still propagate.
			searchable = false
		default:
			e.mapVertex(u, v)
			mapped = true
		}
	}
	// Precondition for Case 1 of Transition 4: after the deleted edge goes
	// away, v will have no outgoing explicit edge labeled uChild, so v's
	// incoming explicit u-edges lose their support.
	precondition := transit && uChild != graph.NoVertex && e.d.ExplicitOut(v, uChild) == 1
	// Parent snapshot from the engine arena (see buildUpwardsAndEval).
	mark := len(e.parentScratch)
	e.parentScratch = e.d.AppendInParents(e.parentScratch, v, u, true)
	parents := e.parentScratch[mark:]
	for _, vp := range parents {
		if u == e.tree.Root {
			if searchable {
				e.subgraphSearch(0)
			}
		} else {
			up := e.tree.ParentEdge[u].Parent
			if e.d.MatchAllChildren(vp, up) {
				e.clearUpwardsAndEval(up, vp, u, precondition, searchable)
			}
		}
		// Case 1 of Transition 4, applied after the upward searches so the
		// explicit structure stays intact while negatives are reported.
		if precondition {
			e.d.MakeTransition(vp, u, v, dcg.Implicit)
		}
	}
	e.parentScratch = e.parentScratch[:mark]
	if mapped {
		e.unmapVertex(u)
	}
}

// clearDCG is Algorithm 10: null the DCG edge (v, u, v2) (Transition 3 if
// it was explicit, Transition 5 if implicit) and, when v2 thereby loses its
// last incoming u-edge, recursively null the orphaned subtree below it
// (Case 2 of Transitions 3 and 5).
//
//tf:hotpath
func (e *Engine) clearDCG(u graph.VertexID, v, v2 graph.VertexID) {
	if !e.d.MakeTransition(v, u, v2, dcg.Null) {
		return
	}
	if e.d.InDegree(v2, u) != 0 {
		return
	}
	for _, uc := range e.tree.Children[u] {
		te := e.tree.ParentEdge[uc]
		var nbrs []graph.VertexID
		if te.Forward {
			nbrs = e.g.OutNeighbors(v2, te.Label)
		} else {
			nbrs = e.g.InNeighbors(v2, te.Label)
		}
		// Snapshot: clearDCG mutates adjacency-backed DCG state but not the
		// data graph, so the neighbor slices stay stable; still, nulling is
		// idempotent through MakeTransition's change check. The stored lists
		// are read past the view (SetView) on purpose: an edge it hides is
		// not inserted yet or already deleted at this update, so its DCG edge
		// is Null and falls to the same test.
		for _, vc := range nbrs {
			if e.d.GetState(v2, uc, vc) != dcg.Null {
				e.clearDCG(uc, v2, vc)
			}
		}
	}
}
