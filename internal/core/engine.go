// Package core implements the TurboFlux continuous subgraph matching
// engine (Section 4 of the paper): the DCG construction and maintenance
// algorithms (BuildDCG, InsertEdgeAndEval, DeleteEdgeAndEval and their
// upward companions) and the SubgraphSearch procedure that reports
// positive and negative matches.
package core

import (
	"errors"
	"fmt"
	"slices"

	"turboflux/internal/dcg"
	"turboflux/internal/graph"
	"turboflux/internal/query"
	"turboflux/internal/stream"
)

// ErrWorkBudget reports that an update completed more matches than
// Options.WorkBudget: the first WorkBudget were reported, the search stopped
// there, and the update's maintenance ran to the end.
var ErrWorkBudget = errors.New("core: per-update work budget exceeded")

// Semantics selects the matching semantics.
type Semantics uint8

const (
	// Homomorphism is the paper's default: L(u) ⊆ L(m(u)) and every query
	// edge maps to a data edge; the mapping need not be injective.
	Homomorphism Semantics = iota
	// Isomorphism additionally requires the vertex mapping to be injective.
	Isomorphism
)

func (s Semantics) String() string {
	if s == Isomorphism {
		return "isomorphism"
	}
	return "homomorphism"
}

// MatchFunc receives one positive (inserted) or negative (deleted) match.
// mapping[u] is the data vertex matched to query vertex u; the slice is
// reused across calls and must be copied if retained.
type MatchFunc func(positive bool, mapping []graph.VertexID)

// Options configures an Engine.
type Options struct {
	// Semantics selects homomorphism (default) or isomorphism.
	Semantics Semantics
	// OnMatch, when non-nil, receives every reported match.
	OnMatch MatchFunc
	// StartVertex overrides ChooseStartQVertex when not graph.NoVertex.
	StartVertex graph.VertexID
	// WorkBudget caps the matches one update may report, counted after
	// duplicate avoidance; 0 means unlimited. At the (WorkBudget+1)-th match
	// the search stops and the update returns the WorkBudget matches it
	// reported with ErrWorkBudget, but every DCG transition of the update
	// still runs, so the DCG stays at the fixpoint of the graph. Used by the
	// benchmark harness to censor non-selective queries the way the paper's
	// 2-hour timeout does. Construction and InitialMatches are never capped.
	WorkBudget int64
}

// DefaultOptions returns the paper-default configuration.
func DefaultOptions() Options {
	return Options{StartVertex: graph.NoVertex}
}

// Engine is a TurboFlux continuous subgraph matching instance bound to one
// data graph and one query. After New, the caller must route every data
// graph mutation through InsertEdge/DeleteEdge/Apply so the DCG stays
// consistent.
type Engine struct {
	g    *graph.Graph
	q    *query.Graph
	tree *query.Tree
	d    *dcg.DCG
	opt  Options

	// win/at are the engine's view of g inside a multi-query evaluation
	// window (SetView); nil reads the graph as stored.
	win *graph.Window
	at  int32

	// shared marks a follower of a sub-pattern in the multi-query layer
	// (DESIGN.md §17): d is owned by another engine of the same tree, which
	// applies all DCG transitions, and this engine's eval entry points
	// switch to read-only replay — gate on the maintained state, climb without
	// transitions, search with this query's own matching order, non-tree
	// checks, semantics and duplicate avoidance.
	shared bool

	mo []graph.VertexID // matching order, mo[0] == tree.Root

	// procRank[i] is the processing rank of query edge i: tree edges first
	// (insertion builds their DCG branches in this order), then non-tree
	// edges. Duplicate-result avoidance reports a solution only at its
	// maximum-rank trigger on insertion (all branches built by then) and at
	// its minimum-rank trigger on deletion (no state destroyed yet).
	procRank []int

	// treeSlotsByLabel[l] lists the child query vertices whose parent tree
	// edge carries data-edge label l, in ascending vertex order;
	// nonTreeByLabel[l] likewise lists the non-tree query-edge indexes, in
	// tree.NonTree order. Precomputed so each update visits only the query
	// edges its label can match — an update whose label the query never
	// mentions costs two empty lookups.
	treeSlotsByLabel [][]graph.VertexID
	nonTreeByLabel   [][]int

	m []graph.VertexID // current mapping; graph.NoVertex = unmapped

	// iso/useCnt implement the injectivity check of isomorphism semantics:
	// useCnt[v] counts how many query vertices currently map to data vertex
	// v, as a dense slice grown on demand (DESIGN.md §16 — no hash maps on
	// the eval path).
	iso    bool
	useCnt []int32

	// rootSeen, a bitset by VertexID (bit v%64 of word v/64), records that
	// ensureRootEdge already settled vertex v: either its root DCG edge
	// exists (root edges are never nulled — the only Null transition,
	// clearDCG, starts strictly below the root) or v's labels can never
	// match L(u_s) (data-vertex labels are immutable after creation and
	// vertices are never deleted). Either way the per-update probe can be
	// skipped forever. Grown on demand; stays valid across order
	// adjustment (the tree root never changes).
	rootSeen []uint64

	// parentScratch is the engine-owned arena the upward traversals carve
	// their parent snapshots from (mark, append, iterate, truncate): the
	// recursion only ever appends past its own mark and reads segments
	// captured before deeper calls, so one grow-only buffer serves the whole
	// traversal with zero steady-state allocations. The engine is evaluated
	// by at most one fanout worker at a time, which makes the arena
	// single-owner by construction.
	parentScratch []graph.VertexID

	updEdge   graph.Edge // the data edge of the update being processed
	trigger   int        // query-edge index of the current trigger, -1 = none
	positive  bool       // direction of the update being processed
	opMatches int64      // matches reported during the current operation
	opCap     int64      // matches the current operation may report, 0 = unlimited
	censored  bool       // the current operation hit opCap: the search stops

	// dedupChecks lists the query edges that could outrank the current
	// trigger on the updated data edge, precomputed by setTrigger so the
	// per-match duplicate check touches only them (usually none).
	dedupChecks []graph.Edge

	posTotal, negTotal int64

	// Matching-order drift detection: explicit counts per label at the time
	// the order was computed.
	orderStats []int64
}

// New builds a TurboFlux engine over data graph g (the initial graph g0)
// and query q: it chooses the starting query vertex, transforms q into a
// query tree, constructs the initial DCG and computes the matching order
// (Algorithm 2, Lines 1–6). g must not be mutated directly afterwards.
func New(g *graph.Graph, q *query.Graph, opt Options) (*Engine, error) {
	tree, err := BuildTree(g, q, opt)
	if err != nil {
		return nil, err
	}
	return NewWithTree(g, q, tree, opt, nil)
}

// BuildTree chooses the starting query vertex and transforms q into its
// query tree over the current graph statistics — the first half of New,
// exposed so the multi-query layer can canonicalize the tree (the
// sub-pattern sharing key) before deciding whether to build a private
// DCG or join an existing shared one.
func BuildTree(g *graph.Graph, q *query.Graph, opt Options) (*query.Tree, error) {
	if g == nil || q == nil {
		return nil, errors.New("core: nil graph or query")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	us := opt.StartVertex
	if us == graph.NoVertex {
		us = query.ChooseStartQVertex(q, g)
	} else if int(us) >= q.NumVertices() {
		return nil, fmt.Errorf("core: start vertex %d out of range", us)
	}
	return query.TransformToTree(q, us, g)
}

// NewWithTree builds an engine over a pre-built query tree. When sharedDCG
// is nil the engine owns a private DCG, constructed from the current
// graph exactly as New does. When sharedDCG is non-nil the engine joins
// it as a read-only sub-pattern follower: initial DCG construction is
// skipped (the shared DCG already holds the fixpoint, and — because
// candidate enumeration is a pure function of DCG state — the matching
// order and every future transcript come out identical to what a private
// DCG would have produced).
func NewWithTree(g *graph.Graph, q *query.Graph, tree *query.Tree, opt Options, sharedDCG *dcg.DCG) (*Engine, error) {
	if g == nil || q == nil || tree == nil {
		return nil, errors.New("core: nil graph, query or tree")
	}
	if q.NumVertices() > dcg.MaxQueryVertices {
		return nil, fmt.Errorf("core: query has %d vertices, at most %d supported", q.NumVertices(), dcg.MaxQueryVertices)
	}
	d := sharedDCG
	if d == nil {
		d = dcg.New(tree, g)
	}
	e := &Engine{
		g:        g,
		q:        q,
		tree:     tree,
		d:        d,
		opt:      opt,
		shared:   sharedDCG != nil,
		m:        make([]graph.VertexID, q.NumVertices()),
		procRank: make([]int, q.NumEdges()),
		trigger:  -1,
	}
	for i := range e.m {
		e.m[i] = graph.NoVertex
	}
	if opt.Semantics == Isomorphism {
		e.iso = true
	}
	rank := 0
	for u := 0; u < q.NumVertices(); u++ {
		if graph.VertexID(u) == tree.Root {
			continue
		}
		te := tree.ParentEdge[u]
		e.procRank[te.Index] = rank
		rank++
		for int(te.Label) >= len(e.treeSlotsByLabel) {
			e.treeSlotsByLabel = append(e.treeSlotsByLabel, nil)
		}
		e.treeSlotsByLabel[te.Label] = append(e.treeSlotsByLabel[te.Label], graph.VertexID(u))
	}
	for _, nt := range tree.NonTree {
		e.procRank[nt] = rank
		rank++
		l := q.Edge(nt).Label
		for int(l) >= len(e.nonTreeByLabel) {
			e.nonTreeByLabel = append(e.nonTreeByLabel, nil)
		}
		e.nonTreeByLabel[l] = append(e.nonTreeByLabel[l], nt)
	}

	if sharedDCG == nil {
		// Build the initial DCG: a hypothetical edge (v*_s, v_s) insertion
		// for every v_s with L(u_s) ⊆ L(v_s) (Algorithm 2, Lines 4–5).
		e.forEachStartCandidate(func(vs graph.VertexID) {
			e.buildDCG(tree.Root, graph.NoVertex, vs)
		})
	}
	e.computeMatchingOrder()
	return e, nil
}

// NotifyVertexAdded performs root-candidate bookkeeping for a vertex that
// was just added to the (possibly shared) data graph: a vertex matching
// L(u_s) receives its hypothetical (v*_s, v_s) edge.
//
//tf:eval-path
func (e *Engine) NotifyVertexAdded(v graph.VertexID) {
	if e.shared {
		return // the DCG's owner does its root bookkeeping
	}
	if e.g.HasAllLabels(v, e.q.Labels(e.tree.Root)) {
		e.buildDCG(e.tree.Root, graph.NoVertex, v)
	}
}

// forEachStartCandidate calls fn for every data vertex matching L(u_s).
func (e *Engine) forEachStartCandidate(fn func(graph.VertexID)) {
	rootLabels := e.q.Labels(e.tree.Root)
	if len(rootLabels) == 0 {
		e.g.ForEachVertex(fn)
		return
	}
	for _, v := range e.g.VerticesWithLabel(rootLabels[0]) {
		if e.g.HasAllLabels(v, rootLabels) {
			fn(v)
		}
	}
}

// Graph returns the engine's data graph. Callers must not mutate it.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Query returns the engine's query graph.
func (e *Engine) Query() *query.Graph { return e.q }

// Tree returns the query tree q'.
func (e *Engine) Tree() *query.Tree { return e.tree }

// DCG returns the engine's data-centric graph. Callers must not mutate it.
func (e *Engine) DCG() *dcg.DCG { return e.d }

// MatchingOrder returns the current matching order. Must not be mutated.
func (e *Engine) MatchingOrder() []graph.VertexID { return e.mo }

// PositiveCount returns the total positive matches reported so far
// (excluding InitialMatches).
func (e *Engine) PositiveCount() int64 { return e.posTotal }

// NegativeCount returns the total negative matches reported so far.
func (e *Engine) NegativeCount() int64 { return e.negTotal }

// IntermediateSizeBytes returns the accounting size of the maintained
// intermediate results (the DCG).
func (e *Engine) IntermediateSizeBytes() int64 { return e.d.SizeBytes() }

// InitialMatches reports every complete solution in the initial data graph
// (Algorithm 2, Lines 7–11) through OnMatch and returns their number.
// These are not counted in PositiveCount, and WorkBudget does not cap them.
//
//tf:eval-path
func (e *Engine) InitialMatches() int64 {
	var n int64
	e.clearTrigger()
	e.positive = true
	e.opCap, e.censored = 0, false
	us := e.tree.Root
	for _, vs := range e.d.RootCandidates(true) {
		e.mapVertex(us, vs)
		before := e.opMatches
		e.subgraphSearch(0)
		n += e.opMatches - before
		e.unmapVertex(us)
	}
	// Initial matches are reported but not accumulated into the stream
	// totals, matching the paper's cost model which separates g0 from Δg.
	e.posTotal -= n
	e.opMatches = 0
	return n
}

// InsertEdge applies the edge-insertion operation (v, l, v2): it inserts
// the edge into the data graph, updates the DCG and reports every positive
// match (Algorithm 2, Lines 14–16). It returns the number of positive
// matches for this operation. Inserting a duplicate edge is a no-op.
func (e *Engine) InsertEdge(v graph.VertexID, l graph.Label, v2 graph.VertexID) (int64, error) {
	if !e.g.InsertEdge(v, l, v2) {
		return 0, nil
	}
	return e.EvalInsertedEdge(v, l, v2)
}

// EvalInsertedEdge updates the DCG and reports positive matches for an
// edge insertion that a coordinator has ALREADY applied to the shared data
// graph. Used by multi-query front ends, where one graph mutation fans out
// to several engines; single-query callers use InsertEdge.
//
//tf:eval-path
func (e *Engine) EvalInsertedEdge(v graph.VertexID, l graph.Label, v2 graph.VertexID) (int64, error) {
	e.beginOp(graph.Edge{From: v, Label: l, To: v2}, true)
	if e.shared {
		// The DCG's owner has already applied every transition for this
		// update; replay the trigger gates and search read-only.
		insertTriggers[replay](e, v, l, v2)
	} else {
		insertTriggers[fused](e, v, l, v2)
	}
	e.maybeAdjustOrder()
	return e.endOp()
}

// DeleteEdge applies the edge-deletion operation (v, l, v2): it reports
// every negative match, updates the DCG and then removes the edge from the
// data graph (Algorithm 2, Lines 17–19 — evaluation strictly precedes the
// graph mutation). It returns the number of negative matches. Deleting an
// absent edge is a no-op.
func (e *Engine) DeleteEdge(v graph.VertexID, l graph.Label, v2 graph.VertexID) (int64, error) {
	if !e.g.HasEdge(v, l, v2) {
		return 0, nil
	}
	n, err := e.EvalBeforeDelete(v, l, v2)
	e.g.DeleteEdge(v, l, v2)
	return n, err
}

// EvalBeforeDelete updates the DCG and reports negative matches for an
// edge deletion; the edge must still be present in the shared data graph
// and the coordinator must remove it only after every engine has
// evaluated (the operation-order requirement of Algorithm 2).
//
//tf:eval-path
func (e *Engine) EvalBeforeDelete(v graph.VertexID, l graph.Label, v2 graph.VertexID) (int64, error) {
	e.beginOp(graph.Edge{From: v, Label: l, To: v2}, false)
	if e.shared {
		// Replay against the still-intact shared DCG; its owner clears the
		// affected branches afterwards, so order adjustment must wait until
		// the coordinator calls AdjustOrderDeferred post-clearing.
		deleteTriggers[replay](e, v, l, v2)
	} else {
		deleteTriggers[fused](e, v, l, v2)
		e.maybeAdjustOrder()
	}
	return e.endOp()
}

// NewMaintainer builds a maintenance-only engine over the donor's graph,
// query tree and DCG, reusing its immutable routing tables (procRank and
// the label indexes are fixed at construction) and a copy of its rootSeen.
// Such an engine never searches and never reports: it applies the DCG
// transitions of an update through the maintain pass of the Algorithm 5/8
// trigger loops. Nothing in the serving path builds one any more — a
// shared DCG is maintained by its owner's fused pass (DESIGN.md §17). The
// benchmark's core.maintain_ns_per_update probe (bench/layers.go) is the
// only caller of this, MaintainInsertedEdge and MaintainBeforeDelete
// outside tests; they go when that metric is re-based.
func NewMaintainer(donor *Engine) *Engine {
	e := &Engine{
		g:                donor.g,
		q:                donor.q,
		tree:             donor.tree,
		d:                donor.d,
		opt:              DefaultOptions(),
		m:                make([]graph.VertexID, donor.q.NumVertices()),
		procRank:         donor.procRank,
		treeSlotsByLabel: donor.treeSlotsByLabel,
		nonTreeByLabel:   donor.nonTreeByLabel,
		rootSeen:         append([]uint64(nil), donor.rootSeen...),
		trigger:          -1,
	}
	for i := range e.m {
		e.m[i] = graph.NoVertex
	}
	return e
}

// MaintainInsertedEdge applies the DCG transitions of an edge insertion
// without searching. Maintenance is semantics- and search-independent, so
// the resulting DCG state equals what any private engine would have
// produced.
//
//tf:eval-path
func (e *Engine) MaintainInsertedEdge(v graph.VertexID, l graph.Label, v2 graph.VertexID) {
	e.beginOp(graph.Edge{From: v, Label: l, To: v2}, true)
	insertTriggers[maintain](e, v, l, v2)
}

// MaintainBeforeDelete applies the DCG transitions of an edge deletion
// without searching: Transition 4 downgrades, then the Algorithm 10
// clearing. The edge must still be in the graph.
//
//tf:eval-path
func (e *Engine) MaintainBeforeDelete(v graph.VertexID, l graph.Label, v2 graph.VertexID) {
	e.beginOp(graph.Edge{From: v, Label: l, To: v2}, false)
	deleteTriggers[maintain](e, v, l, v2)
}

// AdjustOrderDeferred runs the matching-order drift check that
// EvalBeforeDelete skips for followers: a private engine adjusts on the
// post-clearing DCG, so a follower must wait until the DCG's owner has
// cleared before sampling the same state.
func (e *Engine) AdjustOrderDeferred() {
	e.maybeAdjustOrder()
}

// Twin reports whether o evaluates every update exactly as e does, so that
// o may copy e's outcome instead of searching (DESIGN.md §17, Twins). Both
// must read one DCG, which implies equal vertex label sequences and equal
// trees (mqo.KeyOf encodes them); what the shared DCG leaves open is
// compared here: the edge lists index by index, the non-tree edges, the
// semantics, the work budgets, and the matching orders with the drift
// snapshots they were computed from. The last part stays true:
// maybeAdjustOrder is a pure function of the DCG counts, which the two
// engines sample at the same points.
func (e *Engine) Twin(o *Engine) bool {
	return e.d == o.d && e.opt.Semantics == o.opt.Semantics && e.opt.WorkBudget == o.opt.WorkBudget &&
		slices.Equal(e.q.Edges(), o.q.Edges()) && slices.Equal(e.tree.NonTree, o.tree.NonTree) &&
		slices.Equal(e.mo, o.mo) && slices.Equal(e.orderStats, o.orderStats)
}

// CreditTwin books an update a twin did not search: its source (Twin)
// reported n matches of the update's sign, which become the twin's own,
// and the twin runs the matching-order drift check its source ran. Call it
// once the update's DCG transitions are done, where AdjustOrderDeferred
// runs.
func (e *Engine) CreditTwin(positive bool, n int64) {
	if positive {
		e.posTotal += n
	} else {
		e.negTotal += n
	}
	e.maybeAdjustOrder()
}

// UnshareDCG hands the shared DCG's ownership to this follower, whose
// previous owner is gone: the engine resumes applying the transitions
// itself, fused with its searches. Its rootSeen cache never saw the vertices
// settled while it followed; missing entries just re-probe (root edges are
// never nulled and labels are immutable).
func (e *Engine) UnshareDCG() { e.shared = false }

// Apply applies one stream update and returns the number of matches it
// produced. Vertex declarations create the vertex (and, when it matches
// L(u_s), its root DCG edge) and produce no matches.
func (e *Engine) Apply(u stream.Update) (int64, error) {
	switch u.Op {
	case stream.OpInsert:
		return e.InsertEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
	case stream.OpDelete:
		return e.DeleteEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
	case stream.OpVertex:
		if !e.g.HasVertex(u.Vertex) {
			e.g.EnsureVertex(u.Vertex, u.Labels...)
			e.NotifyVertexAdded(u.Vertex)
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("core: unknown update op %d", u.Op)
	}
}

func (e *Engine) beginOp(ed graph.Edge, positive bool) {
	e.updEdge = ed
	e.positive = positive
	e.opMatches = 0
	e.opCap = e.opt.WorkBudget
	e.censored = false
	e.clearTrigger()
}

// endOp closes an update evaluated since beginOp and returns its match
// count, with ErrWorkBudget when the cap censored its search.
func (e *Engine) endOp() (int64, error) {
	n := e.opMatches
	e.opMatches = 0
	e.clearTrigger()
	if e.censored {
		return n, ErrWorkBudget
	}
	return n, nil
}

// mapVertex binds query vertex u to data vertex v in the working mapping.
//
//tf:hotpath
func (e *Engine) mapVertex(u, v graph.VertexID) {
	e.m[u] = v
	if e.iso {
		if int(v) >= len(e.useCnt) {
			n := int(v) + 1
			if n < 2*len(e.useCnt) {
				n = 2 * len(e.useCnt) // amortize repeated growth
			}
			nc := make([]int32, n)
			copy(nc, e.useCnt)
			e.useCnt = nc
		}
		e.useCnt[v]++
	}
}

// unmapVertex clears the binding of u.
//
//tf:hotpath
func (e *Engine) unmapVertex(u graph.VertexID) {
	v := e.m[u]
	e.m[u] = graph.NoVertex
	if e.iso && v != graph.NoVertex {
		e.useCnt[v]--
	}
}

// usable reports whether data vertex v may be bound to one more query
// vertex under the configured semantics.
//
//tf:hotpath
func (e *Engine) usable(v graph.VertexID) bool {
	return !e.iso || int(v) >= len(e.useCnt) || e.useCnt[v] == 0
}

// edgeMatchesTreeSlot reports whether data edge (v, l, v2) matches the tree
// edge of child query vertex u in the direction parent-at-v: i.e. the
// oriented data edge from the parent side v to the child side v2 carries
// the right label, direction and endpoint label constraints.
func (e *Engine) edgeMatchesTreeSlot(u graph.VertexID, v, v2 graph.VertexID, l graph.Label, forwardFromParent bool) bool {
	te := e.tree.ParentEdge[u]
	if te.Label != l || te.Forward != forwardFromParent {
		return false
	}
	return e.g.HasAllLabels(v, e.q.Labels(te.Parent)) && e.g.HasAllLabels(v2, e.q.Labels(u))
}

// setTrigger records the query edge owning the current evaluation and
// precomputes the duplicate-avoidance checks: the query edges with the
// same label that outrank the trigger (higher processing rank for
// insertions, lower for deletions) and could therefore own a solution
// that also maps them onto the updated data edge.
func (e *Engine) setTrigger(i int) {
	e.trigger = i
	e.dedupChecks = e.dedupChecks[:0]
	tr := e.procRank[i]
	for j, qe := range e.q.Edges() {
		if j == i || qe.Label != e.updEdge.Label {
			continue
		}
		r := e.procRank[j]
		if (e.positive && r > tr) || (!e.positive && r < tr) {
			e.dedupChecks = append(e.dedupChecks, qe)
		}
	}
}

func (e *Engine) clearTrigger() {
	e.trigger = -1
	e.dedupChecks = e.dedupChecks[:0]
}

// treeSlots returns the child query vertices whose parent tree edge can
// match a data edge labeled l.
//
//tf:hotpath
func (e *Engine) treeSlots(l graph.Label) []graph.VertexID {
	if int(l) < len(e.treeSlotsByLabel) {
		return e.treeSlotsByLabel[l]
	}
	return nil
}

// TreeRelevant reports whether a data edge labeled l can match a tree edge
// of the query — the updates that transition the DCG.
//
//tf:hotpath
func (e *Engine) TreeRelevant(l graph.Label) bool { return len(e.treeSlots(l)) != 0 }

// nonTreeSlots returns the non-tree query-edge indexes whose edge can
// match a data edge labeled l.
//
//tf:hotpath
func (e *Engine) nonTreeSlots(l graph.Label) []int {
	if int(l) < len(e.nonTreeByLabel) {
		return e.nonTreeByLabel[l]
	}
	return nil
}

// report emits the current complete mapping if it survives duplicate
// avoidance (Section 3.3 of DESIGN.md): with a trigger edge set, the
// solution is reported only when the trigger is the maximum-rank
// (insertion) or minimum-rank (deletion) query edge among those the
// solution maps onto the updated data edge. The match past the operation's
// cap is not reported: it censors the search instead.
func (e *Engine) report() {
	for _, qe := range e.dedupChecks {
		if e.m[qe.From] == e.updEdge.From && e.m[qe.To] == e.updEdge.To {
			return // an outranking trigger owns this solution
		}
	}
	if e.opMatches == e.opCap && e.opCap > 0 {
		e.censored = true
		return
	}
	e.opMatches++
	if e.positive {
		e.posTotal++
	} else {
		e.negTotal++
	}
	if e.opt.OnMatch != nil {
		e.opt.OnMatch(e.positive, e.m)
	}
}
