// Package sjtree implements the SJ-Tree baseline (Choudhury et al., EDBT
// 2015; Section 2.2 of the TurboFlux paper): a left-deep subgraph-join
// tree whose leaves are single query edges and whose internal nodes
// materialize the join of their children's partial solutions.
//
// On every edge insertion, new tuples enter the matching leaves, join with
// the materialized table of the sibling node and propagate upward; tuples
// reaching the root are positive matches. Duplicate partial solutions are
// filtered with the generate-and-discard strategy (check the hash table
// before inserting). SJ-Tree does not support edge deletion — the paper
// excludes it from the deletion experiments for the same reason.
//
// The storage pathology the paper demonstrates (worst case
// O(|V(q)|·|E(g)|^|E(q)|) materialized tuples) is inherent to this design
// and reproduces in the benchmarks.
package sjtree

import (
	"errors"
	"fmt"

	"turboflux/internal/csm"
	"turboflux/internal/graph"
	"turboflux/internal/query"
	"turboflux/internal/stream"
)

// ErrDeletionUnsupported is returned by Apply for deletion operations.
var ErrDeletionUnsupported = errors.New("sjtree: edge deletion is not supported")

// tuple is a partial solution: data vertex per query vertex, graph.NoVertex
// where uncovered.
type tuple []graph.VertexID

// node is one node of the left-deep join tree.
type node struct {
	// edge is the query-edge index for leaves, -1 for internal nodes.
	edge int
	// left/right children; nil for leaves. right is always a leaf.
	left, right *node
	// covered[u] reports whether query vertex u is covered by this node.
	covered []bool
	// joinVars are the query vertices shared with the sibling in the parent
	// join (empty for the root).
	joinVars []graph.VertexID
	// index maps join-key -> tuples, for the parent's join probe.
	index map[string][]tuple
	// seen deduplicates full tuples (generate-and-discard).
	seen map[string]bool
}

// Engine is an SJ-Tree continuous matcher.
type Engine struct {
	g     *graph.Graph
	q     *query.Graph
	opt   csm.Options
	timer csm.Timer

	root   *node
	leaves []*node // leaf for query edge i at leaves[i]
	nodes  []*node // all nodes, for the parent/sibling lookup

	bytes int64 // IntermediateSizeBytes, kept by propagate

	// opMatches counts the current update's reported matches; overBudget
	// records that a match past WorkBudget went unreported.
	opMatches  int64
	overBudget bool
	// halted is the censor (ErrDeadline or ErrSizeCap) that stopped
	// materialization part-way; the tables are incomplete from then on.
	halted error
}

// New builds the SJ-Tree for q over the initial graph g0 and materializes
// the partial solutions of its edges. The engine takes ownership of g0
// (callers keep their own copy if they need one). It returns ErrDeadline
// or ErrSizeCap when the initial materialization passes opt.Deadline or
// opt.SizeCap.
func New(g0 *graph.Graph, q *query.Graph, opt csm.Options) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Matches completed by g0's own edges are initial matches: neither
	// reported nor counted against WorkBudget.
	e := &Engine{
		g:     g0,
		q:     q,
		opt:   csm.Options{Injective: opt.Injective, SizeCap: opt.SizeCap},
		timer: csm.NewTimer(opt.Deadline),
	}
	if err := e.buildTree(); err != nil {
		return nil, err
	}
	g0.ForEachEdge(e.materialize)
	if e.halted != nil {
		return nil, e.halted
	}
	e.opt = opt
	return e, nil
}

// buildTree constructs the left-deep decomposition: query edges are taken
// in a connected order (each subsequent edge shares a vertex with the
// prefix); leaf i holds edge order[i]; internal node i joins internal node
// i-1 with leaf i.
func (e *Engine) buildTree() error {
	q := e.q
	n := q.NumEdges()
	order := connectedEdgeOrder(q)
	if len(order) != n {
		return fmt.Errorf("sjtree: query is disconnected")
	}
	mkLeaf := func(ei int) *node {
		qe := q.Edge(ei)
		cov := make([]bool, q.NumVertices())
		cov[qe.From] = true
		cov[qe.To] = true
		return &node{
			edge:    ei,
			covered: cov,
			index:   make(map[string][]tuple),
			seen:    make(map[string]bool),
		}
	}
	cur := mkLeaf(order[0])
	e.leaves = make([]*node, n)
	e.leaves[order[0]] = cur
	e.nodes = append(e.nodes, cur)
	for i := 1; i < n; i++ {
		leaf := mkLeaf(order[i])
		e.leaves[order[i]] = leaf
		parentCov := make([]bool, q.NumVertices())
		var shared []graph.VertexID
		for u := range parentCov {
			parentCov[u] = cur.covered[u] || leaf.covered[u]
			if cur.covered[u] && leaf.covered[u] {
				shared = append(shared, graph.VertexID(u))
			}
		}
		cur.joinVars = shared
		leaf.joinVars = shared
		parent := &node{
			edge:    -1,
			left:    cur,
			right:   leaf,
			covered: parentCov,
			index:   make(map[string][]tuple),
			seen:    make(map[string]bool),
		}
		e.nodes = append(e.nodes, leaf, parent)
		cur = parent
	}
	// If the query has a single edge, the lone leaf is the root.
	e.root = cur
	return nil
}

// connectedEdgeOrder returns the query edges ordered so each shares a
// vertex with an earlier edge.
func connectedEdgeOrder(q *query.Graph) []int {
	n := q.NumEdges()
	used := make([]bool, n)
	inSet := make([]bool, q.NumVertices())
	var order []int
	first := q.Edge(0)
	order = append(order, 0)
	used[0] = true
	inSet[first.From], inSet[first.To] = true, true
	for len(order) < n {
		found := -1
		for i, qe := range q.Edges() {
			if used[i] {
				continue
			}
			if inSet[qe.From] || inSet[qe.To] {
				found = i
				break
			}
		}
		if found < 0 {
			break
		}
		used[found] = true
		qe := q.Edge(found)
		inSet[qe.From], inSet[qe.To] = true, true
		order = append(order, found)
	}
	return order
}

// Apply processes one update. Deletions return ErrDeletionUnsupported;
// vertex declarations register the vertex.
func (e *Engine) Apply(u stream.Update) (int64, error) {
	switch u.Op {
	case stream.OpInsert:
		return e.InsertEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
	case stream.OpDelete:
		return 0, ErrDeletionUnsupported
	case stream.OpVertex:
		if !e.g.HasVertex(u.Vertex) {
			e.g.EnsureVertex(u.Vertex, u.Labels...)
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("sjtree: unknown op %d", u.Op)
	}
}

// InsertEdge inserts (v, l, v2) and returns the number of positive matches
// it reported. Past WorkBudget it returns ErrWorkBudget with every tuple
// still stored; once Deadline or SizeCap has stopped materialization,
// every further insertion fails with that censor.
func (e *Engine) InsertEdge(v graph.VertexID, l graph.Label, v2 graph.VertexID) (int64, error) {
	if e.halted != nil {
		return 0, e.halted
	}
	if !e.g.InsertEdge(v, l, v2) {
		return 0, nil
	}
	e.opMatches, e.overBudget = 0, false
	e.materialize(graph.Edge{From: v, Label: l, To: v2})
	switch {
	case e.halted != nil:
		return e.opMatches, e.halted
	case e.overBudget:
		return e.opMatches, csm.ErrWorkBudget
	}
	return e.opMatches, nil
}

// materialize generates the leaf tuples of a (present) data edge and
// propagates them through the join tree.
func (e *Engine) materialize(ed graph.Edge) {
	nq := e.q.NumVertices()
	for ei, qe := range e.q.Edges() {
		if qe.Label != ed.Label {
			continue
		}
		if !e.g.HasAllLabels(ed.From, e.q.Labels(qe.From)) ||
			!e.g.HasAllLabels(ed.To, e.q.Labels(qe.To)) {
			continue
		}
		if e.opt.Injective && qe.From != qe.To && ed.From == ed.To {
			continue
		}
		if qe.From == qe.To && ed.From != ed.To {
			continue
		}
		tup := make(tuple, nq)
		for i := range tup {
			tup[i] = graph.NoVertex
		}
		tup[qe.From] = ed.From
		tup[qe.To] = ed.To
		e.propagate(e.leaves[ei], []tuple{tup})
	}
}

// propagate stores delta in n, joins the tuples that are new against the
// sibling's table, and carries the results to the parent in batches of at
// most csm.Stride tuples. The censors are checked before every store and
// on every join step, so a censored join stores at most one batch past
// its censor and no tree level holds more than one pending batch.
func (e *Engine) propagate(n *node, delta []tuple) {
	if e.censored() {
		return
	}
	fresh := n.addTuples(delta)
	for _, c := range n.covered {
		if c {
			e.bytes += 8 * int64(len(fresh))
		}
	}
	parent, sibling := e.parentAndSibling(n)
	if parent == nil {
		for _, t := range fresh {
			e.report(t)
		}
		return
	}
	var out []tuple
	for _, t := range fresh {
		for _, s := range sibling.index[joinKey(t, n.joinVars)] {
			if e.censored() {
				return
			}
			merged, ok := e.merge(t, s)
			if !ok {
				continue
			}
			if out = append(out, merged); len(out) == csm.Stride {
				e.propagate(parent, out)
				out = out[:0] // the parent stored the tuples, not the slice
			}
		}
	}
	if len(out) > 0 {
		e.propagate(parent, out)
	}
}

// censored counts one step of materialization and reports whether it must
// stop: the deadline passed (read every csm.Stride steps) or the stored
// tuples outgrew SizeCap. The first censor is kept for good.
func (e *Engine) censored() bool {
	switch {
	case e.halted != nil:
	case e.timer.Expired():
		e.halted = csm.ErrDeadline
	case e.opt.SizeCap > 0 && e.bytes > e.opt.SizeCap:
		e.halted = csm.ErrSizeCap
	}
	return e.halted != nil
}

// report hands a root tuple to OnMatch, unless the update has already
// reported WorkBudget matches; the tuple stays stored either way.
func (e *Engine) report(t tuple) {
	if e.opt.WorkBudget > 0 && e.opMatches == e.opt.WorkBudget {
		e.overBudget = true
		return
	}
	e.opMatches++
	if e.opt.OnMatch != nil {
		e.opt.OnMatch(true, t)
	}
}

// parentAndSibling locates n's parent and sibling in the left-deep tree.
func (e *Engine) parentAndSibling(n *node) (parent, sibling *node) {
	for _, cand := range e.nodes {
		if cand.left == n {
			return cand, cand.right
		}
		if cand.right == n {
			return cand, cand.left
		}
	}
	return nil, nil
}

// addTuples inserts tuples into n's table, discarding duplicates, and
// returns the genuinely new ones (generate-and-discard).
func (n *node) addTuples(ts []tuple) []tuple {
	var fresh []tuple
	for _, t := range ts {
		fk := fullKey(t)
		if n.seen[fk] {
			continue
		}
		n.seen[fk] = true
		key := joinKey(t, n.joinVars)
		n.index[key] = append(n.index[key], t)
		fresh = append(fresh, t)
	}
	return fresh
}

// merge combines two tuples with compatible shared vertices; it reports
// failure on conflicts (shouldn't happen after the key join) and, under
// isomorphism, on non-injective combinations.
func (e *Engine) merge(a, b tuple) (tuple, bool) {
	out := make(tuple, len(a))
	copy(out, a)
	for u, v := range b {
		if v == graph.NoVertex {
			continue
		}
		if out[u] != graph.NoVertex && out[u] != v {
			return nil, false
		}
		out[u] = v
	}
	if e.opt.Injective {
		seen := make(map[graph.VertexID]bool, len(out))
		for _, v := range out {
			if v == graph.NoVertex {
				continue
			}
			if seen[v] {
				return nil, false
			}
			seen[v] = true
		}
	}
	return out, true
}

func joinKey(t tuple, vars []graph.VertexID) string {
	b := make([]byte, 0, len(vars)*5)
	for _, u := range vars {
		b = appendVertex(b, t[u])
		b = append(b, ',')
	}
	return string(b)
}

func fullKey(t tuple) string {
	b := make([]byte, 0, len(t)*5)
	for _, v := range t {
		b = appendVertex(b, v)
		b = append(b, ',')
	}
	return string(b)
}

func appendVertex(b []byte, v graph.VertexID) []byte {
	if v == graph.NoVertex {
		return append(b, '*')
	}
	n := uint64(v)
	if n >= 10 {
		b = appendVertex(b, graph.VertexID(n/10))
		return append(b, byte('0'+n%10))
	}
	return append(b, byte('0'+n))
}

// IntermediateSizeBytes returns the accounting size of all materialized
// partial solutions: per tuple, 8 bytes per covered query vertex (the
// paper sizes SJ-Tree tuples by the number of vertices in the subquery).
func (e *Engine) IntermediateSizeBytes() int64 { return e.bytes }

// Graph returns the engine's data graph (for assertions in tests).
func (e *Engine) Graph() *graph.Graph { return e.g }
