package core

import (
	"turboflux/internal/dcg"
	"turboflux/internal/graph"
)

// evalMode selects which halves of Algorithms 5 and 8 a pass of the trigger
// loops runs. A mode has two properties, bits of its array length:
//   - maintains (bit 1): apply the update's DCG transitions — root edges,
//     BuildDCG, Transitions 2 and 4, ClearDCG;
//   - searches (bit 2): bind each trigger, run SubgraphSearch and the
//     non-tree triggers.
//
// fused, the pass of a private DCG or a shared DCG's owner, has both;
// replay, a follower's read-only pass over its owner's DCG, only searches;
// maintain, a NewMaintainer engine's pass, only maintains.
//
// The mode is a type argument, so that the compiler writes one loop per
// mode. It is an array length because len of an array-shaped type
// parameter folds to a constant in each instantiation, and the shapes
// differ: the branches the mode rules out compile away, and the replay
// instantiations contain no call to buildDCG or clearDCG. A method on the
// type parameter would not do that: it compiles to an indirect call
// through the instantiation's dictionary, which is a runtime flag by
// another name, and a runtime flag cost serve-maintain 7 % per update
// (DESIGN.md §17). The arrays are of bytes, not struct{}, so that the
// shapes differ in size too. CI reads the assembly to check it.
type evalMode interface{ ~[1]byte | ~[2]byte | ~[3]byte }

type (
	maintain [1]byte
	replay   [2]byte
	fused    [3]byte
)

// insertTriggers is Algorithm 5: the edge (v, l, v2) has just been
// inserted into the data graph. For every tree query edge it matches, the
// DCG is (re)built downward from the edge and, when the edge's DCG state
// becomes EXPLICIT, the engine builds upward toward the starting vertices
// and runs SubgraphSearch to report positive matches. Non-tree query edges
// never modify the DCG; they only seed upward traversals. The mode M
// selects which of its two halves run (see evalMode).
//
// A replay pass (DESIGN.md §17) runs after the DCG's owner has applied
// every transition of the insertion: it re-runs the trigger gates against
// the post-maintenance state and climbs transition-free. Insertion
// transitions are monotone, so the maintained state is a superset of every
// mid-update view a private engine would have seen: every privately
// reported solution is enumerated here, and any extra solution necessarily
// maps the updated edge at an outranking trigger and is suppressed by the
// max-rank duplicate check — candidate enumeration being a pure function
// of DCG state makes the surviving emission order byte-identical.
//
//tf:hotpath
func insertTriggers[M evalMode](e *Engine, v graph.VertexID, l graph.Label, v2 graph.VertexID) {
	var m M
	maintains, searches := len(m)&1 != 0, len(m)&2 != 0
	if maintains {
		// New data vertices that satisfy L(u_s) become starting vertices:
		// treat them as hypothetical (v*_s, v_s) insertions first (Section
		// 3.2).
		e.ensureRootEdge(v)
		if v2 != v {
			e.ensureRootEdge(v2)
		}
	}

	// Tree query edges (Lines 1–10). A tree slot is the parent edge of a
	// child query vertex uc; the data edge matches it in exactly one
	// orientation. The label index pre-filters to the slots this edge can
	// match, in ascending child-vertex order.
	for _, ucv := range e.treeSlots(l) {
		te := e.tree.ParentEdge[ucv]
		parentV, childV := v, v2
		if !te.Forward {
			parentV, childV = v2, v
		}
		// Case 2 of Transition 0: the parent side must already be a
		// candidate for te.Parent (it has an incoming implicit/explicit
		// edge labeled te.Parent), otherwise the DCG is not updated.
		if !e.d.HasInLabel(parentV, te.Parent) {
			continue
		}
		if !e.g.HasAllLabels(parentV, e.q.Labels(te.Parent)) ||
			!e.g.HasAllLabels(childV, e.q.Labels(ucv)) {
			continue // Case 1 of Transition 0
		}
		if maintains {
			e.buildDCG(ucv, parentV, childV)
		}
		if e.d.GetState(parentV, ucv, childV) != dcg.Explicit ||
			!e.d.MatchAllChildren(parentV, te.Parent) {
			continue
		}
		if searches {
			e.setTrigger(te.Index)
			e.mapVertex(ucv, childV)
		}
		e.buildUpwardsAndEval(te.Parent, parentV, maintains, searches)
		if searches {
			e.unmapVertex(ucv)
			e.clearTrigger()
		}
	}

	if searches {
		e.insertNonTreeTriggers(v, l, v2)
	}
}

// insertNonTreeTriggers runs the non-tree trigger loop of Algorithm 5
// (Lines 11–18): each matching non-tree query edge seeds a
// transition-free upward traversal from its From-endpoint. Non-tree
// triggers never modify the DCG, so the fused and replay passes run the
// same loop and a maintain pass skips it.
//
//tf:hotpath
func (e *Engine) insertNonTreeTriggers(v graph.VertexID, l graph.Label, v2 graph.VertexID) {
	for _, nt := range e.nonTreeSlots(l) {
		qe := e.q.Edge(nt)
		// The data edge is directed, so m(qe.From)=v and m(qe.To)=v2.
		if !e.d.HasInLabel(v, qe.From) || !e.d.HasInLabel(v2, qe.To) {
			continue
		}
		if !e.d.MatchAllChildren(v, qe.From) || !e.d.MatchAllChildren(v2, qe.To) {
			continue
		}
		e.setTrigger(nt)
		if qe.To == qe.From {
			// Self-loop query edge: a single mapped vertex.
			if v == v2 {
				e.buildUpwardsAndEval(qe.From, v, false, true)
			}
		} else if e.usable(v2) {
			e.mapVertex(qe.To, v2)
			e.buildUpwardsAndEval(qe.From, v, false, true)
			e.unmapVertex(qe.To)
		}
		e.clearTrigger()
	}
}

// ensureRootEdge creates the root DCG edge (v*_s, u_s, w) for a data
// vertex that matches L(u_s) but has no root edge yet — the streaming
// analogue of the hypothetical insertions used to build the initial DCG.
//
//tf:hotpath
func (e *Engine) ensureRootEdge(w graph.VertexID) {
	if i := int(w >> 6); i < len(e.rootSeen) && e.rootSeen[i]&(1<<(w&63)) != 0 {
		return
	}
	us := e.tree.Root
	if e.d.GetState(graph.NoVertex, us, w) == dcg.Null {
		if !e.g.HasAllLabels(w, e.q.Labels(us)) {
			e.markRootSeen(w) // labels are immutable: never a candidate
			return
		}
		e.buildDCG(us, graph.NoVertex, w)
	}
	e.markRootSeen(w)
}

// markRootSeen records that w's root edge is settled (see Engine.rootSeen).
//
//tf:hotpath
func (e *Engine) markRootSeen(w graph.VertexID) {
	i := int(w >> 6)
	if i >= len(e.rootSeen) {
		n := i + 1
		if n < 2*len(e.rootSeen) {
			n = 2 * len(e.rootSeen)
		}
		ns := make([]uint64, n)
		copy(ns, e.rootSeen)
		e.rootSeen = ns
	}
	e.rootSeen[i] |= 1 << (w & 63)
}

// buildUpwardsAndEval is Algorithm 6: map u to v, upgrade v's incoming
// IMPLICIT edges labeled u to EXPLICIT when transitions are enabled
// (Transition 2, Case 2 — the caller has verified MatchAllChildren(v, u)),
// and either run SubgraphSearch at the starting query vertex or keep
// climbing through every parent whose children are all matched.
// searchable tracks whether the current upward path can still seed a
// SubgraphSearch: a mapping conflict (u already bound elsewhere, or v bound
// to another query vertex under isomorphism) invalidates the search but the
// DCG transitions — which are semantics-independent — must still be applied
// all the way up.
//
//tf:hotpath
func (e *Engine) buildUpwardsAndEval(u graph.VertexID, v graph.VertexID, transit, searchable bool) {
	mapped := false
	if searchable {
		switch {
		case e.m[u] == v:
			// Already bound consistently (non-tree trigger whose To-endpoint
			// is an ancestor of its From-endpoint).
		case e.m[u] != graph.NoVertex || !e.usable(v):
			searchable = false
		default:
			e.mapVertex(u, v)
			mapped = true
		}
	}
	// Parent snapshot from the engine arena: transitions below mutate v's
	// in-edges, so the list is copied out first. The recursion appends past
	// this segment and truncates back, never touching it.
	mark := len(e.parentScratch)
	e.parentScratch = e.d.AppendInParents(e.parentScratch, v, u, false)
	parents := e.parentScratch[mark:]
	for _, vp := range parents {
		if transit && e.d.GetState(vp, u, v) == dcg.Implicit {
			e.d.MakeTransition(vp, u, v, dcg.Explicit)
		}
		if u == e.tree.Root {
			if searchable {
				e.subgraphSearch(0)
			}
			continue
		}
		up := e.tree.ParentEdge[u].Parent
		if e.d.MatchAllChildren(vp, up) {
			e.buildUpwardsAndEval(up, vp, transit, searchable)
		}
	}
	e.parentScratch = e.parentScratch[:mark]
	if mapped {
		e.unmapVertex(u)
	}
}
