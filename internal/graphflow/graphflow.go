// Package graphflow implements the Graphflow baseline (Kankanamge et al.,
// SIGMOD 2017; Section 2.2 of the TurboFlux paper): stateless delta
// evaluation with a worst-case-optimal-style one-vertex-at-a-time join.
//
// For every updated edge (v, v') and every query edge (u, u') it matches,
// the engine evaluates subgraph matching starting from the partial binding
// {(u, v), (u', v')}. No intermediate results are maintained, so each
// update pays the full join cost — the behaviour the paper's Figure 9
// shows degrading with dataset size.
//
// Exactness for repeated relations uses the standard delta rule: when the
// trigger is query edge i, query edges ordered before i must not map onto
// the updated data edge, which makes each positive/negative match appear
// under exactly one trigger without set differences.
package graphflow

import (
	"fmt"

	"turboflux/internal/csm"
	"turboflux/internal/graph"
	"turboflux/internal/query"
	"turboflux/internal/stream"
)

// Options configures a Graphflow engine. Deadline is checked on extension
// steps; Graphflow stores no intermediate results, so SizeCap never binds.
type Options = csm.Options

// Engine is a Graphflow-style continuous matcher. It owns its data graph.
type Engine struct {
	g   *graph.Graph
	q   *query.Graph
	opt Options

	// orders[i] is the vertex extension order used when query edge i is
	// the trigger: trigger endpoints first, then a connected expansion.
	orders [][]extStep

	timer csm.Timer

	m        []graph.VertexID
	used     map[graph.VertexID]bool
	updEdge  graph.Edge
	trigger  int
	positive bool
	matches  int64
	// censor is why the current update's search stopped early, or nil.
	censor error
}

// extStep describes one extension step: bind query vertex U using query
// edge Via (whose other endpoint is already bound).
type extStep struct {
	U   graph.VertexID
	Via int
}

// New builds a Graphflow engine over the initial graph g0. Initial matches
// are not enumerated (Graphflow evaluates deltas only; the paper measures
// join time on the update stream). g0 must not be mutated by the caller.
func New(g0 *graph.Graph, q *query.Graph, opt Options) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		g:     g0,
		q:     q,
		opt:   opt,
		timer: csm.NewTimer(opt.Deadline),
		m:     make([]graph.VertexID, q.NumVertices()),
	}
	for i := range e.m {
		e.m[i] = graph.NoVertex
	}
	if opt.Injective {
		e.used = make(map[graph.VertexID]bool)
	}
	e.orders = make([][]extStep, q.NumEdges())
	for i := range e.orders {
		e.orders[i] = extensionOrder(q, i)
	}
	return e, nil
}

// extensionOrder returns a connected extension order for trigger edge ti.
func extensionOrder(q *query.Graph, ti int) []extStep {
	te := q.Edge(ti)
	bound := make([]bool, q.NumVertices())
	bound[te.From] = true
	bound[te.To] = true
	var steps []extStep
	for {
		found := false
		for ei, qe := range q.Edges() {
			var next graph.VertexID
			switch {
			case bound[qe.From] && !bound[qe.To]:
				next = qe.To
			case bound[qe.To] && !bound[qe.From]:
				next = qe.From
			default:
				continue
			}
			bound[next] = true
			steps = append(steps, extStep{U: next, Via: ei})
			found = true
			break
		}
		if !found {
			return steps
		}
	}
}

// Apply processes one update.
func (e *Engine) Apply(u stream.Update) (int64, error) {
	switch u.Op {
	case stream.OpInsert:
		return e.InsertEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
	case stream.OpDelete:
		return e.DeleteEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
	case stream.OpVertex:
		if !e.g.HasVertex(u.Vertex) {
			e.g.EnsureVertex(u.Vertex, u.Labels...)
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("graphflow: unknown op %d", u.Op)
	}
}

// InsertEdge inserts the edge and reports positive matches.
func (e *Engine) InsertEdge(v graph.VertexID, l graph.Label, v2 graph.VertexID) (int64, error) {
	if !e.g.InsertEdge(v, l, v2) {
		return 0, nil
	}
	n := e.evaluate(graph.Edge{From: v, Label: l, To: v2}, true)
	return n, e.censor
}

// DeleteEdge reports negative matches (evaluated while the edge is still
// present) and then deletes the edge.
func (e *Engine) DeleteEdge(v graph.VertexID, l graph.Label, v2 graph.VertexID) (int64, error) {
	if !e.g.HasEdge(v, l, v2) {
		return 0, nil
	}
	n := e.evaluate(graph.Edge{From: v, Label: l, To: v2}, false)
	e.g.DeleteEdge(v, l, v2)
	return n, e.censor
}

func (e *Engine) evaluate(ed graph.Edge, positive bool) int64 {
	e.updEdge = ed
	e.positive = positive
	e.matches = 0
	e.censor = nil
	for ti, qe := range e.q.Edges() {
		if e.censor != nil {
			break
		}
		if qe.Label != ed.Label {
			continue
		}
		if !e.g.HasAllLabels(ed.From, e.q.Labels(qe.From)) ||
			!e.g.HasAllLabels(ed.To, e.q.Labels(qe.To)) {
			continue
		}
		if qe.From == qe.To && ed.From != ed.To {
			continue
		}
		if e.opt.Injective && qe.From != qe.To && ed.From == ed.To {
			continue
		}
		e.trigger = ti
		e.bind(qe.From, ed.From)
		if qe.To != qe.From {
			e.bind(qe.To, ed.To)
		}
		if e.checkBoundEdges(qe.From) && (qe.To == qe.From || e.checkBoundEdges(qe.To)) {
			e.extend(0)
		}
		if qe.To != qe.From {
			e.unbind(qe.To)
		}
		e.unbind(qe.From)
	}
	return e.matches
}

func (e *Engine) bind(u, v graph.VertexID) {
	e.m[u] = v
	if e.used != nil {
		e.used[v] = true
	}
}

func (e *Engine) unbind(u graph.VertexID) {
	if e.used != nil && e.m[u] != graph.NoVertex {
		delete(e.used, e.m[u])
	}
	e.m[u] = graph.NoVertex
}

// extend binds the remaining query vertices one at a time (generic-join
// style: candidates from one bound neighbor's adjacency, validated against
// every other bound neighbor). The (WorkBudget+1)-th complete match and an
// expired deadline stop the search.
func (e *Engine) extend(step int) {
	if e.timer.Expired() {
		e.censor = csm.ErrDeadline
		return
	}
	steps := e.orders[e.trigger]
	if step == len(steps) {
		if e.opt.WorkBudget > 0 && e.matches == e.opt.WorkBudget {
			e.censor = csm.ErrWorkBudget
			return
		}
		e.matches++
		if e.opt.OnMatch != nil {
			e.opt.OnMatch(e.positive, e.m)
		}
		return
	}
	st := steps[step]
	via := e.q.Edge(st.Via)
	var cands []graph.VertexID
	if via.To == st.U {
		cands = e.g.OutNeighbors(e.m[via.From], via.Label)
	} else {
		cands = e.g.InNeighbors(e.m[via.To], via.Label)
	}
	labels := e.q.Labels(st.U)
	for _, v := range cands {
		if e.censor != nil {
			return
		}
		if e.opt.Injective && e.used[v] {
			continue
		}
		if !e.g.HasAllLabels(v, labels) {
			continue
		}
		e.m[st.U] = v
		if e.used != nil {
			e.used[v] = true
		}
		if e.checkBoundEdges(st.U) {
			e.extend(step + 1)
		}
		if e.used != nil {
			delete(e.used, v)
		}
		e.m[st.U] = graph.NoVertex
	}
}

// checkBoundEdges validates every query edge incident to u whose other
// endpoint is bound: the data edge must exist, and the delta rule must
// hold — query edges ranked before the trigger must not map onto the
// updated data edge (for insertions they see the pre-update graph; for
// deletions the rule is mirrored so each match has exactly one trigger).
func (e *Engine) checkBoundEdges(u graph.VertexID) bool {
	for _, ei := range e.q.IncidentEdges(u) {
		qe := e.q.Edge(ei)
		mf, mt := e.m[qe.From], e.m[qe.To]
		if mf == graph.NoVertex || mt == graph.NoVertex {
			continue
		}
		if !e.g.HasEdge(mf, qe.Label, mt) {
			return false
		}
		if ei != e.trigger && ei < e.trigger &&
			mf == e.updEdge.From && mt == e.updEdge.To && qe.Label == e.updEdge.Label {
			return false // owned by the earlier trigger
		}
	}
	return true
}

// IntermediateSizeBytes is always zero: Graphflow maintains no state.
func (e *Engine) IntermediateSizeBytes() int64 { return 0 }

// Graph returns the engine's data graph (for assertions in tests).
func (e *Engine) Graph() *graph.Graph { return e.g }
