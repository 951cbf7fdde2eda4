// Package matcher implements static subgraph matching over a snapshot of
// the data graph: a backtracking graph-homomorphism / subgraph-isomorphism
// search in the style of TurboHom++ (candidate filtering by labels and
// adjacency, connected matching orders).
//
// It is the evaluation substrate of the IncIsoMat baseline and the naive
// recompute oracle; TurboFlux itself searches through the DCG instead.
package matcher

import (
	"fmt"
	"strings"
	"time"

	"turboflux/internal/csm"
	"turboflux/internal/graph"
	"turboflux/internal/query"
)

// VisitFunc receives one complete mapping (query vertex -> data vertex).
// The slice is reused; copy it if retained. Return false to stop the
// enumeration early.
type VisitFunc func(m []graph.VertexID) bool

// FindAll enumerates every match of q in g under graph homomorphism
// (injective == false) or subgraph isomorphism (injective == true),
// invoking fn for each. The query must be connected.
func FindAll(g *graph.Graph, q *query.Graph, injective bool, fn VisitFunc) error {
	_, err := FindAllBudget(g, q, injective, time.Time{}, fn)
	return err
}

// FindAllBudget is FindAll under a deadline: the enumeration stops once the
// wall clock passes it, read every csm.Stride candidate attempts (a zero
// deadline never expires). It reports whether the enumeration ran to
// completion. IncIsoMat censors its repeated searches with it.
func FindAllBudget(g *graph.Graph, q *query.Graph, injective bool, deadline time.Time, fn VisitFunc) (complete bool, err error) {
	if err := q.Validate(); err != nil {
		return false, err
	}
	s := &searcher{
		g:         g,
		q:         q,
		injective: injective,
		timer:     csm.NewTimer(deadline),
		fn:        fn,
		m:         make([]graph.VertexID, q.NumVertices()),
	}
	for i := range s.m {
		s.m[i] = graph.NoVertex
	}
	if injective {
		s.used = make(map[graph.VertexID]bool)
	}
	s.order, s.via = matchingOrder(g, q)
	s.search(0)
	return !s.expired, nil
}

// Count returns the number of matches of q in g.
func Count(g *graph.Graph, q *query.Graph, injective bool) (int64, error) {
	var n int64
	err := FindAll(g, q, injective, func([]graph.VertexID) bool {
		n++
		return true
	})
	return n, err
}

// Key canonicalizes a mapping for set comparisons across engines.
func Key(m []graph.VertexID) string {
	var sb strings.Builder
	for i, v := range m {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", v)
	}
	return sb.String()
}

// MatchSet collects all matches of q in g as a set of canonical keys.
func MatchSet(g *graph.Graph, q *query.Graph, injective bool) (map[string]bool, error) {
	set := make(map[string]bool)
	err := FindAll(g, q, injective, func(m []graph.VertexID) bool {
		set[Key(m)] = true
		return true
	})
	return set, err
}

type searcher struct {
	g         *graph.Graph
	q         *query.Graph
	injective bool
	fn        VisitFunc
	m         []graph.VertexID
	used      map[graph.VertexID]bool
	stopped   bool
	timer     csm.Timer
	expired   bool

	// order is a connected matching order; via[i] is the index of a query
	// edge connecting order[i] to an earlier vertex (-1 for order[0]).
	order []graph.VertexID
	via   []int
}

// matchingOrder returns a connected order starting from the endpoint of
// the most selective query edge, expanding by the most selective frontier
// edge — the static analogue of Section 4.1's heuristics.
func matchingOrder(g *graph.Graph, q *query.Graph) ([]graph.VertexID, []int) {
	n := q.NumVertices()
	start := query.ChooseStartQVertex(q, g)
	order := []graph.VertexID{start}
	via := []int{-1}
	placed := make([]bool, n)
	placed[start] = true
	for len(order) < n {
		bestEdge, bestNext := -1, graph.NoVertex
		bestCost := 0.0
		for i, e := range q.Edges() {
			var next graph.VertexID
			switch {
			case placed[e.From] && !placed[e.To]:
				next = e.To
			case placed[e.To] && !placed[e.From]:
				next = e.From
			default:
				continue
			}
			c := query.EstimateEdgeMatches(g, q.Labels(e.From), e.Label, q.Labels(e.To))
			if bestEdge < 0 || c < bestCost {
				bestEdge, bestNext, bestCost = i, next, c
			}
		}
		if bestEdge < 0 {
			break // disconnected; Validate prevents this
		}
		placed[bestNext] = true
		order = append(order, bestNext)
		via = append(via, bestEdge)
	}
	return order, via
}

func (s *searcher) search(depth int) {
	if s.stopped {
		return
	}
	if depth == len(s.order) {
		if !s.fn(s.m) {
			s.stopped = true
		}
		return
	}
	u := s.order[depth]
	if depth == 0 {
		labels := s.q.Labels(u)
		if len(labels) == 0 {
			s.g.ForEachVertex(func(v graph.VertexID) {
				s.try(u, v, depth)
			})
			return
		}
		for _, v := range s.g.VerticesWithLabel(labels[0]) {
			if s.g.HasAllLabels(v, labels) {
				s.try(u, v, depth)
			}
		}
		return
	}
	// Candidates come from the adjacency of the already-mapped endpoint of
	// the via edge.
	e := s.q.Edge(s.via[depth])
	var cands []graph.VertexID
	if e.To == u {
		cands = s.g.OutNeighbors(s.m[e.From], e.Label)
	} else {
		cands = s.g.InNeighbors(s.m[e.To], e.Label)
	}
	labels := s.q.Labels(u)
	for _, v := range cands {
		if s.g.HasAllLabels(v, labels) {
			s.try(u, v, depth)
		}
	}
}

func (s *searcher) try(u, v graph.VertexID, depth int) {
	if s.stopped {
		return
	}
	if s.timer.Expired() {
		s.expired = true
		s.stopped = true
		return
	}
	if s.injective && s.used[v] {
		return
	}
	// Verify every query edge between u and already-mapped vertices.
	for _, ei := range s.q.IncidentEdges(u) {
		e := s.q.Edge(ei)
		if e.From == u && e.To == u {
			if !s.g.HasEdge(v, e.Label, v) {
				return
			}
			continue
		}
		if e.From == u {
			if w := s.m[e.To]; w != graph.NoVertex && !s.g.HasEdge(v, e.Label, w) {
				return
			}
		} else {
			if w := s.m[e.From]; w != graph.NoVertex && !s.g.HasEdge(w, e.Label, v) {
				return
			}
		}
	}
	s.m[u] = v
	if s.injective {
		s.used[v] = true
	}
	s.search(depth + 1)
	s.m[u] = graph.NoVertex
	if s.injective {
		delete(s.used, v)
	}
}
