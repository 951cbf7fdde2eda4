package core

import (
	"turboflux/internal/dcg"
	"turboflux/internal/graph"
)

// buildDCG is Algorithm 3: it records the candidate edge (v, u, v2) as
// IMPLICIT (Transition 1), recursively builds the DCG for v2's subtrees
// unless they were already built (check-and-avoid), and upgrades the edge
// to EXPLICIT when every subtree of u matches under v2 (Transition 2,
// Case 1/2).
//
// Deviation from the pseudo-code, documented in DESIGN.md §3.2: recursion
// only follows an actual NULL→IMPLICIT change, which terminates the
// traversal on cyclic data graphs.
//
//tf:hotpath
func (e *Engine) buildDCG(u graph.VertexID, v, v2 graph.VertexID) {
	if e.d.GetState(v, u, v2) != dcg.Null {
		// Explicit: already built and complete. Implicit: already recorded,
		// so its subtree DCG is already built, and incomplete
		// (check-and-avoid). Nothing to do either way.
		return
	}
	// Case 1 (non-recursive call) or Case 2 (recursive) of Transition 1.
	e.d.MakeTransition(v, u, v2, dcg.Implicit)
	if e.d.InDegree(v2, u) == 1 {
		// check-and-avoid: recurse only when (v, u, v2) is the first
		// incoming u-edge of v2; otherwise the subtree DCG exists already.
		e.buildSubtrees(u, v2)
	}
	// Case 1 or 2 of Transition 2.
	if e.d.MatchAllChildren(v2, u) {
		e.d.MakeTransition(v, u, v2, dcg.Explicit)
	}
}

// buildSubtrees recurses into every matching child edge of v2 (Algorithm 3,
// Lines 3–5).
//
//tf:hotpath
func (e *Engine) buildSubtrees(u graph.VertexID, v2 graph.VertexID) {
	for _, uc := range e.tree.Children[u] {
		te := e.tree.ParentEdge[uc]
		childLabels := e.q.Labels(uc)
		nbrs, probe := e.neighbors(v2, te.Label, te.Forward)
		for _, vc := range nbrs {
			if probe && e.hides(v2, te.Label, vc, te.Forward) {
				continue
			}
			if e.g.HasAllLabels(vc, childLabels) {
				e.buildDCG(uc, v2, vc)
			}
		}
	}
}
