package core

import (
	"turboflux/internal/graph"
	"turboflux/internal/query"
)

// orderDriftSlack is the absolute slack before a per-label explicit-count
// change is considered significant for matching-order adjustment.
const orderDriftSlack = 64

// computeMatchingOrder derives the matching order from the exact explicit
// data-path counts maintained by the DCG (Section 4.1: "since we have
// built the DCG, we can accurately estimate c(T_i) based on the number of
// explicit data paths for each query path").
func (e *Engine) computeMatchingOrder() {
	e.mo = query.DetermineMatchingOrder(e.tree, func(u graph.VertexID) float64 {
		return float64(e.d.ExplicitCount(u))
	})
	if e.orderStats == nil {
		e.orderStats = make([]int64, e.q.NumVertices())
	}
	for u := 0; u < e.q.NumVertices(); u++ {
		e.orderStats[u] = e.d.ExplicitCount(graph.VertexID(u))
	}
}

// maybeAdjustOrder is AdjustMatchingOrder (Algorithm 2, Line 20): the
// matching order is recomputed when any per-label explicit-path count has
// drifted by more than 2x (plus slack) since the order was computed.
func (e *Engine) maybeAdjustOrder() {
	for u := 0; u < e.q.NumVertices(); u++ {
		cur := e.d.ExplicitCount(graph.VertexID(u))
		old := e.orderStats[u]
		if cur > 2*old+orderDriftSlack || old > 2*cur+orderDriftSlack {
			e.computeMatchingOrder()
			return
		}
	}
}
