// Package incisomat implements the IncIsoMat baseline (Fan et al., SIGMOD
// 2011; Section 2.2 of the TurboFlux paper): repeated-search continuous
// matching. For each update it extracts the affected subgraph — the data
// vertices within the query's diameter of the updated edge's endpoints —
// runs full subgraph matching on the subgraph before and after the update,
// and reports the set difference.
//
// It maintains no intermediate state, so each update pays two subgraph
// matching runs plus the extraction and set-difference cost; the paper
// measures it orders of magnitude behind every other engine (Figure 12).
package incisomat

import (
	"fmt"

	"turboflux/internal/csm"
	"turboflux/internal/graph"
	"turboflux/internal/matcher"
	"turboflux/internal/query"
	"turboflux/internal/stream"
)

// Engine is an IncIsoMat continuous matcher. It owns its data graph.
// Options.Deadline is checked inside its subgraph-matching runs; it stores
// no intermediate results, so Options.SizeCap never binds.
type Engine struct {
	g   *graph.Graph
	q   *query.Graph
	opt csm.Options

	diameter int

	anyUnlabeled bool
	labelUnion   map[graph.Label]bool
}

// New builds an IncIsoMat engine over the initial graph g0, which must not
// be mutated by the caller afterwards.
func New(g0 *graph.Graph, q *query.Graph, opt csm.Options) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		g:          g0,
		q:          q,
		opt:        opt,
		diameter:   q.Diameter(),
		labelUnion: make(map[graph.Label]bool),
	}
	for u := 0; u < q.NumVertices(); u++ {
		ls := q.Labels(graph.VertexID(u))
		if len(ls) == 0 {
			e.anyUnlabeled = true
		}
		for _, l := range ls {
			e.labelUnion[l] = true
		}
	}
	return e, nil
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
		return 0, fmt.Errorf("incisomat: unknown op %d", u.Op)
	}
}

// InsertEdge inserts the edge and reports the positive matches it creates.
func (e *Engine) InsertEdge(v graph.VertexID, l graph.Label, v2 graph.VertexID) (int64, error) {
	if !e.g.InsertEdge(v, l, v2) {
		return 0, nil
	}
	return e.evaluate(v, l, v2, true)
}

// DeleteEdge reports the negative matches the deletion destroys and
// removes the edge.
func (e *Engine) DeleteEdge(v graph.VertexID, l graph.Label, v2 graph.VertexID) (int64, error) {
	if !e.g.HasEdge(v, l, v2) {
		return 0, nil
	}
	n, err := e.evaluate(v, l, v2, false)
	e.g.DeleteEdge(v, l, v2)
	return n, err
}

// evaluate extracts the affected subgraph g' around the (present) edge,
// matches it with and without the edge, and reports the difference:
// positives for an insertion, negatives for a deletion.
func (e *Engine) evaluate(v graph.VertexID, l graph.Label, v2 graph.VertexID, positive bool) (int64, error) {
	sub := e.extract(v, v2)
	with, err := e.matchSet(sub)
	if err != nil {
		return 0, err
	}
	sub.DeleteEdge(v, l, v2)
	without, err := e.matchSet(sub)
	if err != nil {
		return 0, err
	}
	return e.reportDiff(with, without, positive)
}

// matchSet runs the static matcher over sub until the deadline.
func (e *Engine) matchSet(sub *graph.Graph) (map[string]bool, error) {
	set := make(map[string]bool)
	complete, err := matcher.FindAllBudget(sub, e.q, e.opt.Injective, e.opt.Deadline,
		func(m []graph.VertexID) bool {
			set[matcher.Key(m)] = true
			return true
		})
	if err != nil {
		return nil, err
	}
	if !complete {
		return nil, csm.ErrDeadline
	}
	return set, nil
}

// reportDiff reports the matches in bigger but not in smaller; the
// (WorkBudget+1)-th stops it with ErrWorkBudget.
func (e *Engine) reportDiff(bigger, smaller map[string]bool, positive bool) (int64, error) {
	var n int64
	for k := range bigger {
		if smaller[k] {
			continue
		}
		if e.opt.WorkBudget > 0 && n == e.opt.WorkBudget {
			return n, csm.ErrWorkBudget
		}
		n++
		if e.opt.OnMatch != nil {
			e.opt.OnMatch(positive, parseKey(k))
		}
	}
	return n, nil
}

func parseKey(k string) []graph.VertexID {
	var out []graph.VertexID
	var cur uint64
	for i := 0; i <= len(k); i++ {
		if i == len(k) || k[i] == ',' {
			out = append(out, graph.VertexID(cur))
			cur = 0
			continue
		}
		cur = cur*10 + uint64(k[i]-'0')
	}
	return out
}

// relevantVertex reports whether v's labels can satisfy any query vertex
// constraint — the label-based pruning the paper describes for g'.
func (e *Engine) relevantVertex(v graph.VertexID) bool {
	if e.anyUnlabeled {
		return true
	}
	for _, l := range e.g.Labels(v) {
		if e.labelUnion[l] {
			return true
		}
	}
	return false
}

// extract builds the affected subgraph: label-relevant vertices within
// diameter(q) hops (undirected) of either endpoint, plus all edges among
// them.
func (e *Engine) extract(v, v2 graph.VertexID) *graph.Graph {
	dist := map[graph.VertexID]int{}
	queue := make([]graph.VertexID, 0, 64)
	for _, s := range []graph.VertexID{v, v2} {
		if _, ok := dist[s]; !ok {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d := dist[cur]
		if d >= e.diameter {
			continue
		}
		visit := func(_ graph.Label, nbrs []graph.VertexID) {
			for _, nb := range nbrs {
				if _, ok := dist[nb]; !ok {
					dist[nb] = d + 1
					queue = append(queue, nb)
				}
			}
		}
		e.g.ForEachOutLabel(cur, visit)
		e.g.ForEachInLabel(cur, visit)
	}
	sub := graph.New()
	for w := range dist {
		if e.relevantVertex(w) || w == v || w == v2 {
			sub.EnsureVertex(w, e.g.Labels(w)...)
		}
	}
	for w := range dist {
		if !sub.HasVertex(w) {
			continue
		}
		e.g.ForEachOutLabel(w, func(l graph.Label, nbrs []graph.VertexID) {
			for _, nb := range nbrs {
				if sub.HasVertex(nb) {
					sub.InsertEdge(w, l, nb)
				}
			}
		})
	}
	return sub
}

// IntermediateSizeBytes is always zero: IncIsoMat maintains no state.
func (e *Engine) IntermediateSizeBytes() int64 { return 0 }

// Graph returns the engine's data graph (for assertions in tests).
func (e *Engine) Graph() *graph.Graph { return e.g }
