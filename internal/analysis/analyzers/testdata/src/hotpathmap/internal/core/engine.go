// Package core exercises the hotpath-map reachability rule: hash-map
// operations are fine in coordinator code but not in anything reachable
// from an eval entry point.
package core

import "turboflux/internal/graph"

// Engine carries leftover maps alongside its dense tables.
type Engine struct {
	dense []int32
	seen  map[graph.VertexID]bool
	stats map[graph.Label]int64
}

// EvalInsertedEdge is an implicit eval entry point; the map ops hide one
// call down.
func (e *Engine) EvalInsertedEdge(from, to graph.VertexID) {
	e.extend(from)
	e.extend(to)
	e.copyOracleStates(e.seen)
}

// extend reads and writes the map from inside the eval path: two
// findings, plus a suppressed probe on a branch annotated as cold.
func (e *Engine) extend(v graph.VertexID) {
	if e.seen[v] {
		return
	}
	e.seen[v] = true
	//tf:map-ok cold branch, never taken on the fast path
	delete(e.seen, v)
}

// drain ranges and deletes on an opted-in eval root: two findings.
//
//tf:eval-path
func (e *Engine) drain() int64 {
	var n int64
	//tf:unordered-ok order-free accumulation
	for _, c := range e.stats {
		n += c
	}
	delete(e.stats, 0)
	return n
}

// copyOracleStates consumes oracle fixpoint states and is exempted
// wholesale even though EvalInsertedEdge reaches it.
//
//tf:oracle-ok oracle helper, exempt from the eval-path rules
func (e *Engine) copyOracleStates(states map[graph.VertexID]bool) {
	//tf:unordered-ok absolute states commute
	for v := range states {
		e.dense[v] = 1
	}
}

// Report is coordinator-only and unreachable from any eval root: clean.
func (e *Engine) Report() int64 {
	var n int64
	//tf:unordered-ok order-free accumulation
	for _, c := range e.stats {
		n += c
	}
	return n
}
