package turboflux

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"turboflux/internal/core"
	"turboflux/internal/durable"
	"turboflux/internal/fanout"
	"turboflux/internal/graph"
	"turboflux/internal/mqo"
	"turboflux/internal/stream"
)

// FanOutStats is a snapshot of the multi-query fan-out counters: how many
// per-engine evaluations ran, how many were elided by label-relevance
// routing, and how the worker pool was utilized. See fanout.Stats for the
// field meanings.
type FanOutStats = fanout.Stats

// mslot is one registered query's evaluation state. The window cells are
// filled by the scheduler (runIdx), written inside the window by the one
// pool worker evaluating the slot's unit (next, runN, runErr, lastN, buf)
// and read by the coordinator after the barrier.
type mslot struct {
	name      string
	eng       *core.Engine
	user      core.MatchFunc           // caller's OnMatch, nil if none
	labels    map[graph.Label]struct{} // edge labels the query mentions
	buf       fanout.EmissionBuffer    // one segment per evaluated update
	buffering bool                     // true while evaluating in a window; routes OnMatch to buf
	keep      bool                     // the slot's or a twin's OnMatch replays buf

	// twin is the earlier member of the slot's unit whose evaluation this
	// slot copies instead of searching (core.Engine.Twin, DESIGN.md §17):
	// nil when the slot searches itself. A twin's source is never a twin.
	twin  *mslot
	lastN int64 // matches of the slot's latest evaluation, which its twins copy

	// runIdx lists the batch indexes of the window's updates relevant to the
	// slot, ascending; next counts those evaluated so far. runErr[k] is the
	// outcome of evaluating runIdx[k] and runN the window's match count.
	runIdx []int32
	next   int
	runN   int64
	runErr []error

	// sub is the slot's evaluation unit: the sub-pattern (DESIGN.md §17) of
	// its spanning-tree shape.
	sub *subpat
}

// subpat is one distinct sub-pattern (spanning-tree shape): its key and the
// member slots sharing its DCG. members[0] is the DCG's owner — an ordinary
// private engine that maintains and searches in one fused walk, at every
// member count; the followers were built over the owner's DCG and replay
// read-only against it, except the twins, which copy an earlier member's
// outcome. The DCG changes with every tree-label update, so a sub-pattern
// is the window's unit of work: one worker walks all of its updates in
// order, owner and followers alike.
type subpat struct {
	key     string   // mqo.KeyOf
	members []*mslot // registration order; members[0] owns the DCG
	twins   int      // members that are twins

	// runIdx is the union of the members' runIdx — the window's updates the
	// unit walks — and evals the number of member searches among them, the
	// key workers claim units by.
	runIdx []int32
	evals  int
}

// MultiEngine runs several continuous queries over one shared data graph,
// the deployment shape of the paper's motivating applications (a fraud
// team monitors many ring patterns, an IDS many attack signatures). Each
// registered query maintains its own DCG (or shares one with the queries
// of the same spanning-tree shape, DESIGN.md §17); the data graph is
// mutated once per update and every relevant engine evaluates against it.
//
// There is one evaluation path (DESIGN.md §11): a batch is cut into
// windows — as long as no edge is touched twice and no vertex is created —
// whose insertions are applied up front and whose deletions are deferred;
// every engine evaluates all of the window's updates relevant to it, in
// order, each against the graph as of that update (an index-versioned
// view, graph.Window), on a persistent worker pool (size
// SetFanOutWorkers, default GOMAXPROCS); and the OnMatch emissions
// buffered per engine inside the window are replayed in (update,
// registration) order after the barrier — so transcripts, counts and
// errors are those of evaluating every engine on every update in turn. A
// single Insert/Delete/Apply is a window of one. Engines whose queries
// cannot mention the updated edge's label are skipped entirely (their
// evaluation would be a structural no-op).
//
// An engine opened with OpenDurableMulti also journals: every update is
// written to its write-ahead log after the vertex-ID check and before any
// evaluation, so the update stream survives process crashes. One built by
// NewMultiEngine keeps its state in memory only.
//
// MultiEngine is not safe for concurrent use. The network server
// serializes all access through its engine-owner goroutine
// (machine-checked by turboflux-vet's actor-confinement analyzer).
//
//tf:actor-owned
type MultiEngine struct {
	g     *Graph
	slots map[string]*mslot
	order []*mslot // registration order, for deterministic replay
	pool  *fanout.Pool

	// byLabel indexes the slots whose queries mention each edge label, in
	// registration order — the routing decision for an update is then one
	// slice index instead of a scan over every registered query. Labels are
	// dense small ints, so a slice beats a map on the hot path. Maintained
	// on Register/Unregister.
	byLabel [][]*mslot

	evals   uint64 // engine searches run
	skipped uint64 // evaluations elided by label-relevance routing

	// one is the batch Insert/Delete/Apply hand to the window scheduler: a
	// single update is a window of one, with no path of its own.
	one [1]stream.Update

	// Window scheduler state: the batch being evaluated and reused
	// per-window scratch — see DESIGN.md §11. win records the window's edge
	// updates (same-edge conflicts, and the engines' versioned view of the
	// graph); view is &win while the window holds two or more of them and
	// nil for a window of one, which has nothing to hide. engaged lists the
	// window's evaluations in (update, registration) order — the replay
	// order; units lists the engaged units, which claim takes from cursor
	// on the coordinator and every worker the pool wakes; runDels holds the
	// window's deletions, applied to the graph after the barrier
	// (Algorithm 2: deletions evaluate before removal). batchErrs[k] is the
	// k-th evaluation error of the batch, raised by the update at
	// batchErrAt[k].
	batch       []stream.Update
	win         graph.Window
	view        *graph.Window
	engaged     []engagement
	units       []*subpat
	cursor      atomic.Int32
	runDels     []Edge
	batchCounts map[string]int64
	batchErrs   []error
	batchErrAt  []int32

	// Multi-query optimization state (DESIGN.md §17): the shareable
	// sub-patterns by key, and the sharing counters (see MQOStats).
	shapes       map[string]*subpat
	maintEvals   uint64 // tree-label updates evaluated on a shape with followers
	savedEvals   uint64 // follower maintenance evaluations avoided by sharing
	sharedRelays uint64 // follower replays against an owner's DCG

	// store is the write-ahead journal (nil in memory) and rec what
	// opening it found on disk. Read once per batch, they sit behind the
	// window scheduler's fields.
	store *durable.Store
	rec   RecoveryInfo
}

// engagement is one scheduled evaluation of the window: slot s evaluates
// its k-th relevant update, batch[s.runIdx[k]], into segment k of s.buf.
type engagement struct {
	s *mslot
	k int32
}

// NewMultiEngine wraps the initial data graph g0. The MultiEngine takes
// ownership of g0: route every mutation through it.
func NewMultiEngine(g0 *Graph) *MultiEngine {
	m := &MultiEngine{
		g:      g0,
		slots:  make(map[string]*mslot),
		shapes: make(map[string]*subpat),
	}
	m.pool = fanout.New(0, m.claim)
	return m
}

// claim is the window's claim loop, the one the pool runs on the caller
// and on every worker it wakes: take the window's units one at a time from
// the shared cursor until none is left, so a unit has a single evaluator
// and the output cannot depend on who claimed what.
//
//tf:hotpath
func (m *MultiEngine) claim() {
	for {
		k := int(m.cursor.Add(1)) - 1
		if k >= len(m.units) {
			return
		}
		m.units[k].evaluate(m)
	}
}

// SetFanOutWorkers resizes the fan-out worker pool; n <= 0 means
// GOMAXPROCS. The pool size changes only where a window's units execute:
// with n == 1 every unit runs inline on the caller's goroutine, through
// the same routing, buffering and replay as any other size. Safe to call
// between updates, not during one.
func (m *MultiEngine) SetFanOutWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if m.pool.Workers() == n {
		return
	}
	m.pool.Close()
	m.pool = fanout.New(n, m.claim)
}

// FanOutStats snapshots the fan-out counters.
func (m *MultiEngine) FanOutStats() FanOutStats {
	st := m.pool.Stats()
	st.Evals = m.evals
	st.Skipped = m.skipped
	return st
}

// Close releases the fan-out worker pool and, on a durable engine, syncs
// and closes the journal. An in-memory engine stays usable — subsequent
// updates evaluate inline — and its Close always returns nil. A durable
// engine refuses updates afterwards; reopen the directory with
// OpenDurableMulti to resume.
func (m *MultiEngine) Close() error {
	m.pool.Close()
	if m.store != nil {
		return m.store.Close()
	}
	return nil
}

// Register adds a continuous query under the given name. The query's
// spanning tree is canonicalized into a sub-pattern key: the first
// registration of a shape builds a DCG over the current graph state and
// owns it, later ones join that DCG as read-only followers without any DCG
// construction at all, and a follower that evaluates exactly as an earlier
// member does becomes its twin (TwinOf). Every query joins its shape: a
// WorkBudget caps only the query's own matches, never the maintenance its
// shape depends on. Registering a duplicate name fails.
func (m *MultiEngine) Register(name string, q *Query, opt Options) error {
	if _, dup := m.slots[name]; dup {
		return fmt.Errorf("turboflux: query %q already registered", name)
	}
	s := &mslot{name: name, user: opt.OnMatch, labels: queryEdgeLabels(q)}
	copt := core.DefaultOptions()
	copt.Semantics = opt.Semantics
	copt.WorkBudget = opt.WorkBudget
	// Inside a window emissions go to the slot's buffer (written only by the
	// worker evaluating this engine) when the slot's or a twin's OnMatch
	// will replay them; outside it — the InitialMatches walk — straight
	// through.
	copt.OnMatch = func(positive bool, mapping []graph.VertexID) {
		if s.buffering {
			if s.keep {
				s.buf.Record(positive, mapping)
			}
		} else if s.user != nil {
			s.user(positive, mapping)
		}
	}
	tree, err := core.BuildTree(m.g, q, copt)
	if err != nil {
		return err
	}
	// Incremental maintenance keeps an owner's DCG at the declarative
	// fixpoint of the current graph — exactly what a fresh build would
	// produce — so a follower computes its matching order from it directly.
	key := mqo.KeyOf(q, tree)
	sp := m.shapes[key]
	if sp != nil {
		s.eng, err = core.NewWithTree(m.g, q, tree, copt, sp.members[0].eng.DCG())
	} else {
		s.eng, err = core.NewWithTree(m.g, q, tree, copt, nil)
		sp = &subpat{key: key}
	}
	if err != nil {
		return err
	}
	for _, t := range sp.members {
		if t.twin == nil && t.eng.Twin(s.eng) {
			s.twin = t
			sp.twins++
			break
		}
	}
	m.shapes[key] = sp
	sp.members = append(sp.members, s)
	s.keep = s.user != nil
	if s.twin != nil && s.user != nil {
		s.twin.keep = true
	}
	s.sub = sp
	m.slots[name] = s
	m.order = append(m.order, s)
	m.indexSlot(s)
	return nil
}

// indexSlot appends a newly registered slot to the label index — O(number
// of labels the query mentions), keeping registration of N queries O(N)
// total instead of the O(N²) a full per-registration rebuild costs.
// Appending preserves the per-label registration order because the new
// slot's position is the maximum.
func (m *MultiEngine) indexSlot(s *mslot) {
	for l := range s.labels { //tf:unordered-ok each label's list keeps registration order; membership is per label
		for int(l) >= len(m.byLabel) {
			m.byLabel = append(m.byLabel, nil)
		}
		m.byLabel[l] = append(m.byLabel[l], s)
	}
}

// unindexSlot removes an unregistered slot from the label index,
// preserving per-label registration order.
func (m *MultiEngine) unindexSlot(s *mslot) {
	for l := range s.labels { //tf:unordered-ok per-label removal; each list's internal order is preserved
		list := m.byLabel[l]
		for i, t := range list {
			if t == s {
				m.byLabel[l] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
}

// queryEdgeLabels collects the set of edge labels a query mentions; an
// update whose label is outside this set cannot extend or retract any of
// the query's matches.
func queryEdgeLabels(q *Query) map[graph.Label]struct{} {
	out := make(map[graph.Label]struct{}, q.NumEdges())
	for _, e := range q.Edges() {
		out[e.Label] = struct{}{}
	}
	return out
}

// Unregister removes a query and reports whether it was registered. When
// the owner of a shared DCG leaves, ownership passes to the next member,
// which resumes applying the transitions itself: its rootSeen cache never
// saw the vertices the old owner settled — missing entries just re-probe,
// and root edges are never nulled. When a twin's source leaves, its first
// twin searches in its place and the others copy that one: their engines
// are in the source's state, so nothing is rebuilt. After the last member
// the DCG is garbage.
func (m *MultiEngine) Unregister(name string) bool {
	s, ok := m.slots[name]
	if !ok {
		return false
	}
	delete(m.slots, name)
	for i, t := range m.order {
		if t == s {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.unindexSlot(s)
	sp := s.sub
	for i, t := range sp.members {
		if t == s {
			sp.members = append(sp.members[:i], sp.members[i+1:]...)
			if len(sp.members) == 0 {
				delete(m.shapes, sp.key)
			} else if i == 0 {
				sp.members[0].eng.UnshareDCG()
			}
			break
		}
	}
	if s.twin != nil {
		sp.twins--
	}
	var heir *mslot
	for _, t := range sp.members {
		if t.twin != s {
			continue
		}
		if heir == nil {
			heir, t.twin = t, nil
			sp.twins--
		} else {
			t.twin = heir
		}
	}
	sp.setKeep()
	return true
}

// setKeep marks the members whose emissions some OnMatch replays: their
// own, or a twin's. Unregister recomputes it for the shape it walks;
// Register sets the new member's and its source's directly.
func (sp *subpat) setKeep() {
	for _, s := range sp.members {
		s.keep = s.user != nil
	}
	for _, s := range sp.members {
		if s.twin != nil && s.user != nil {
			s.twin.keep = true
		}
	}
}

// TwinOf returns the name of the earlier registration whose evaluation the
// named query copies: every update, the two report the same matches in the
// same order, and only the source searches (DESIGN.md §17, Twins). It
// returns "" when the query searches itself or is not registered. The
// relation changes only at Register and Unregister.
func (m *MultiEngine) TwinOf(name string) string {
	if s, ok := m.slots[name]; ok && s.twin != nil {
		return s.twin.name
	}
	return ""
}

// Queries returns the registered query names in registration order.
func (m *MultiEngine) Queries() []string {
	out := make([]string, len(m.order))
	for i, s := range m.order {
		out[i] = s.name
	}
	return out
}

// InitialMatches reports each registered query's matches over the current
// graph and returns per-query counts. Queries evaluate in registration
// order so the interleaving of OnMatch deliveries across queries is
// deterministic, matching the fan-out order of Insert/Delete.
func (m *MultiEngine) InitialMatches() map[string]int64 {
	out := make(map[string]int64, len(m.order))
	for _, s := range m.order {
		out[s.name] = s.eng.InitialMatches()
	}
	return out
}

// Insert applies one edge insertion to the shared graph and evaluates
// the registered queries against it. It returns per-query positive-match
// counts (only non-zero entries). Duplicate insertions are no-ops.
//
// If any engine fails (e.g. exhausts its work budget), the remaining
// engines are still evaluated and the errors are aggregated; see Apply.
func (m *MultiEngine) Insert(from VertexID, l Label, to VertexID) (map[string]int64, error) {
	return m.Apply(stream.Insert(from, l, to))
}

// Delete applies one edge deletion: every engine reports its negative
// matches first, then the edge is removed from the shared graph. As for
// Insert, an engine failure does not stop the evaluation, and the edge is
// removed regardless so the graph never diverges from the stream.
func (m *MultiEngine) Delete(from VertexID, l Label, to VertexID) (map[string]int64, error) {
	return m.Apply(stream.Delete(from, l, to))
}

// Apply applies one stream update: a batch of one through the window
// scheduler, with ApplyBatch's failure semantics. Every relevant engine is
// evaluated even when an earlier one fails, partial counts are returned,
// and the per-query errors are aggregated with errors.Join, each wrapped
// as `query "name"`, so errors.Is still detects ErrWorkBudget. A query
// censored by its WorkBudget reports exactly its first WorkBudget matches
// in search order, whether it owns its shape's DCG or follows it, and the
// update's maintenance runs to the end either way: every DCG and the graph
// stay exactly in sync with the stream. An update naming a vertex ID past
// 2^28 − 1 is refused with an error and changes nothing; so is one a
// durable engine fails to journal.
func (m *MultiEngine) Apply(u Update) (map[string]int64, error) {
	if err := stream.CheckIDs(u); err != nil {
		return nil, err
	}
	m.one[0] = u
	if m.store != nil {
		if _, _, err := m.store.AppendBatch(m.one[:]); err != nil {
			return nil, err
		}
	}
	counts := m.evalBatch(m.one[:], nil)
	return counts, errors.Join(m.batchErrs...)
}

// ApplyBatch applies a whole batch of stream updates with batched
// evaluation: label routing, worker dispatch and the ordered emission
// replay are paid once per window — the whole batch, unless it touches an
// edge twice or creates a vertex — instead of per update (DESIGN.md §11).
// Observable behavior — the OnMatch transcript of every query, the
// aggregated per-query counts, and the final graph — is byte-identical to
// applying the batch one update at a time with Apply. A failing update does not stop the batch: every
// update is applied and evaluated, and the per-update errors are
// aggregated with errors.Join, each wrapped as `update i: query "name"`,
// so errors.Is still detects ErrWorkBudget.
//
// The returned counts map aggregates per-query match counts over the
// whole batch (non-zero entries only). A batch with an update naming a
// vertex ID past 2^28 − 1 is refused whole, before anything is applied. A
// durable engine journals the whole batch as one log write before
// evaluating it; a journaling failure, too, refuses the batch whole.
func (m *MultiEngine) ApplyBatch(ups []stream.Update) (map[string]int64, error) {
	return m.ApplyBatchFunc(ups, nil)
}

// ApplyBatchFunc is ApplyBatch with a per-update boundary hook: when
// boundary is non-nil it is invoked exactly once per batch index, in
// ascending order, after every OnMatch emission of that update has been
// delivered and before any emission of a later update — the hook a
// caller needs to stamp per-update sequence numbers onto emissions (the
// network server does exactly that).
//
//tf:hotpath
func (m *MultiEngine) ApplyBatchFunc(ups []stream.Update, boundary func(i int)) (map[string]int64, error) {
	if err := stream.CheckAll(ups); err != nil {
		return nil, err
	}
	if m.store != nil {
		if _, _, err := m.store.AppendBatch(ups); err != nil {
			return nil, err
		}
	}
	counts := m.evalBatch(ups, boundary)
	for k, err := range m.batchErrs {
		m.batchErrs[k] = fmt.Errorf("update %d: %w", m.batchErrAt[k], err) //tf:alloc-ok error path
	}
	return counts, errors.Join(m.batchErrs...)
}

// evalBatch runs ups through the window scheduler and returns the
// aggregated counts; the evaluation errors are left in batchErrs/batchErrAt
// for the entry point to word (errors.Join copies, so the scratch is reused
// by the next batch).
//
//tf:hotpath
func (m *MultiEngine) evalBatch(ups []stream.Update, boundary func(i int)) map[string]int64 {
	m.batch = ups
	m.batchErrs = m.batchErrs[:0]
	m.batchErrAt = m.batchErrAt[:0]
	for i := 0; i < len(ups); {
		i = m.scheduleWindow(i, boundary)
	}
	m.batch = nil
	counts := m.batchCounts
	m.batchCounts = nil
	return counts
}

// fail records an evaluation error raised by the batch update at idx.
func (m *MultiEngine) fail(idx int, err error) {
	m.batchErrs = append(m.batchErrs, err)
	m.batchErrAt = append(m.batchErrAt, int32(idx))
}

// scheduleWindow builds and executes one window: the longest prefix of
// ups[start:] in which no two updates touch the same edge and no update
// creates a vertex. Edge insertions are pre-applied in batch order as the
// window is built and recorded in win with their index; deletions are
// recorded, evaluate inside the window and leave the graph after it (the
// paper's Algorithm 2 order). An engine only reads adjacency through its
// query's edge labels, and the window's updates carrying those labels are
// exactly the ones it evaluates itself, in order — so reading the graph
// minus the insertions born after the update it is at, minus the deletions
// that died before it, shows it exactly the state sequential evaluation
// would, and all of the window's evaluations share one frozen graph and
// one pool dispatch. An update that creates vertices (a fresh declaration,
// an insert auto-creating an endpoint) is a window of one, so the engines
// it does not engage are notified of the new vertices in exact sequential
// position. No-ops (duplicate inserts, absent deletes, re-declarations) are
// detected exactly, because an update whose edge the window already
// touched ends the window first.
//
// It returns the index of the first update not consumed.
//
//tf:hotpath
func (m *MultiEngine) scheduleWindow(start int, boundary func(i int)) int {
	ups := m.batch
	// A batch of one is a window of one: nothing follows that its edge
	// could conflict with or hide from — which keeps the table out of
	// single-update traffic altogether.
	record := len(ups) > 1
	i := start
loop:
	for i < len(ups) {
		u := ups[i]
		switch u.Op {
		case stream.OpInsert:
			e := u.Edge
			if m.win.Has(e) {
				break loop // same-edge conflict: next window re-examines it
			}
			newFrom := !m.g.HasVertex(e.From)
			newTo := e.To != e.From && !m.g.HasVertex(e.To)
			if (newFrom || newTo) && i > start {
				break loop
			}
			if !m.g.InsertEdge(e.From, e.Label, e.To) {
				i++ // duplicate: sequential no-op
				continue
			}
			if record {
				m.win.Add(e, int32(i), false)
			}
			m.engage(i, e.Label)
			i++
			if newFrom {
				m.notifyVertexAdded(e.From)
			}
			if newTo {
				m.notifyVertexAdded(e.To)
			}
			if newFrom || newTo {
				break loop
			}
		case stream.OpDelete:
			e := u.Edge
			if m.win.Has(e) {
				break loop
			}
			if !m.g.HasEdge(e.From, e.Label, e.To) {
				i++ // absent: sequential no-op
				continue
			}
			if record {
				m.win.Add(e, int32(i), true)
			}
			m.engage(i, e.Label)
			m.runDels = append(m.runDels, e)
			i++
		case stream.OpVertex:
			if m.g.HasVertex(u.Vertex) {
				i++ // existing vertex: sequential no-op
				continue
			}
			if i > start {
				break loop
			}
			m.g.EnsureVertex(u.Vertex, u.Labels...)
			m.notifyVertexAdded(u.Vertex)
			i++
			break loop
		default:
			// No effects, and a window of its own: the batch's errors stay
			// in update order.
			if i > start {
				break loop
			}
			m.fail(i, fmt.Errorf("turboflux: unknown update op %d", u.Op)) //tf:alloc-ok error path
			i++
			break loop
		}
	}
	m.flushWindow(start, i, boundary)
	return i
}

// notifyVertexAdded routes root-candidate bookkeeping for a vertex the
// current window of one just created to the engines that window does not
// evaluate: every slot it has not engaged (followers no-op — the DCG is
// their owner's to touch, so a vertex is settled once per sub-pattern).
// Engaged owners settle the new endpoints themselves. Vertex creation is
// rare at steady state, so the scan stays off the common path.
func (m *MultiEngine) notifyVertexAdded(v VertexID) {
	for _, s := range m.order {
		if len(s.runIdx) == 0 {
			s.eng.NotifyVertexAdded(v)
		}
	}
}

// engage schedules the batch update at idx, labeled l, onto every relevant
// slot, in (update, registration) order, and onto their units. The routing
// and sharing counters are counted here and nowhere else.
//
//tf:hotpath
func (m *MultiEngine) engage(idx int, l Label) {
	var rel []*mslot
	if int(l) < len(m.byLabel) {
		rel = m.byLabel[l]
	}
	for _, s := range rel {
		m.engaged = append(m.engaged, engagement{s, int32(len(s.runIdx))})
		s.runIdx = append(s.runIdx, int32(idx))
		sp := s.sub
		if n := len(sp.runIdx); n == 0 || sp.runIdx[n-1] != int32(idx) {
			if n == 0 {
				m.units = append(m.units, sp)
			}
			sp.runIdx = append(sp.runIdx, int32(idx))
			// A tree-label update transitions the sub-pattern's DCG: the
			// owner maintains it once and every follower but the twins
			// replays. (Other updates touch no shared state.)
			if n := len(sp.members) - 1; n > 0 && sp.members[0].eng.TreeRelevant(l) {
				m.maintEvals++
				m.savedEvals += uint64(n)
				m.sharedRelays += uint64(n - sp.twins)
			}
		}
		if s.twin == nil {
			sp.evals++
			m.evals++
		}
	}
	m.skipped += uint64(len(m.order) - len(rel))
}

// evaluate is a unit's share of the window, run by the one worker that
// claimed it: every update of sp.runIdx in order, each the paper's
// Algorithm 2 per member, against the graph as of that update (m.view),
// with the members' emissions buffered, one segment per evaluation. The
// owner maintains and searches fused; the followers replay read-only. On an
// insertion the owner goes first and the followers gate on the
// post-maintenance state; on a deletion the followers go first, against
// the still-intact state, the owner then clears, and the followers
// re-sample their matching orders against the post-clearing DCG, where a
// private engine would have adjusted. A twin copies its source's outcome
// once the source has evaluated the update and the DCG is final for it:
// in member order on an insertion (a source precedes its twins), after the
// owner on a deletion (the owner may be the source). An update that engages
// only followers (a non-tree label the owner's query lacks) touches no DCG
// state.
//
//tf:hotpath
func (sp *subpat) evaluate(m *MultiEngine) {
	owner, followers := sp.members[0], sp.members[1:]
	for _, idx := range sp.runIdx {
		u := m.batch[idx]
		if u.Op == stream.OpInsert {
			for _, s := range sp.members {
				if s.twin != nil {
					s.copyTwin(idx, true)
				} else {
					s.evaluate(m, idx, u.Edge, true)
				}
			}
			continue
		}
		for _, s := range followers {
			if s.twin == nil {
				s.evaluate(m, idx, u.Edge, false)
			}
		}
		owner.evaluate(m, idx, u.Edge, false)
		for _, s := range followers {
			if s.twin != nil {
				s.copyTwin(idx, false)
			} else if s.next > 0 && s.runIdx[s.next-1] == idx {
				s.eng.AdjustOrderDeferred()
			}
		}
	}
}

// evaluate runs the slot's engine on the batch update at idx — edge e,
// inserted or about to be deleted — if the update is the slot's next
// relevant one, and records the outcome in the slot's window cells.
//
//tf:hotpath
func (s *mslot) evaluate(m *MultiEngine, idx int32, e Edge, ins bool) {
	if s.next == len(s.runIdx) || s.runIdx[s.next] != idx {
		return
	}
	s.next++
	s.eng.SetView(m.view, idx)
	s.buffering = true
	var n int64
	var err error
	if ins {
		n, err = s.eng.EvalInsertedEdge(e.From, e.Label, e.To)
	} else {
		n, err = s.eng.EvalBeforeDelete(e.From, e.Label, e.To)
	}
	s.buffering = false
	s.buf.EndSegment()
	s.lastN = n
	s.runN += n
	s.runErr = append(s.runErr, err)
}

// copyTwin books the batch update at idx for a twin, if it is the slot's
// next relevant one: the source has just evaluated it (a twin's relevant
// updates are its source's), so the twin takes the source's count and
// error as its own and replays the source's segment after the barrier.
//
//tf:hotpath
func (s *mslot) copyTwin(idx int32, positive bool) {
	if s.next == len(s.runIdx) || s.runIdx[s.next] != idx {
		return
	}
	src := s.twin
	s.runErr = append(s.runErr, src.runErr[s.next])
	s.next++
	s.runN += src.lastN
	s.eng.CreditTwin(positive, src.lastN)
}

// flushWindow executes the scheduled window: one pool Run of the claim
// loop over the engaged units, largest first, so one slow unit delays the
// barrier by at most itself (each unit evaluating its updates against the
// frozen graph), then one ordered replay of the buffered emissions in
// (update index, registration order) with per-update boundaries
// interleaved, then the deferred deletions leave the graph.
//
//tf:hotpath
func (m *MultiEngine) flushWindow(start, end int, boundary func(i int)) {
	m.view = nil
	if m.win.Len() > 1 {
		m.view = &m.win
	}
	slices.SortFunc(m.units, func(a, b *subpat) int { return b.evals - a.evals })
	m.cursor.Store(0)
	m.pool.Run(len(m.units))
	next := start
	for _, en := range m.engaged {
		s, k := en.s, int(en.k)
		idx := int(s.runIdx[k])
		if boundary != nil {
			for ; next < idx; next++ {
				boundary(next)
			}
		}
		if s.user != nil {
			src := s
			if s.twin != nil {
				src = s.twin
			}
			src.buf.ReplaySegment(k, s.user)
		}
		if err := s.runErr[k]; err != nil {
			m.fail(idx, fmt.Errorf("query %q: %w", s.name, err)) //tf:alloc-ok error path
		}
	}
	if boundary != nil {
		for ; next < end; next++ {
			boundary(next)
		}
	}
	for _, sp := range m.units {
		for _, s := range sp.members {
			if s.runN != 0 {
				if m.batchCounts == nil {
					m.batchCounts = make(map[string]int64)
				}
				m.batchCounts[s.name] += s.runN
			}
			s.runIdx, s.runErr, s.next, s.runN = s.runIdx[:0], s.runErr[:0], 0, 0
			s.buf.Reset()
		}
		sp.runIdx, sp.evals = sp.runIdx[:0], 0
	}
	for _, e := range m.runDels {
		m.g.DeleteEdge(e.From, e.Label, e.To)
	}
	m.runDels = m.runDels[:0]
	m.engaged = m.engaged[:0]
	m.units = m.units[:0]
	m.win.Reset()
}

// Graph returns the shared data graph. Treat it as read-only.
func (m *MultiEngine) Graph() *Graph { return m.g }

// Explain renders the named query's execution plan — starting vertex,
// query tree, non-tree edges, matching order with per-label explicit-path
// counts, and DCG occupancy — for diagnostics; it returns "" when no query
// of that name is registered.
func (m *MultiEngine) Explain(name string) string {
	s, ok := m.slots[name]
	if !ok {
		return ""
	}
	return s.eng.Plan().String()
}

// Stats returns a per-query snapshot of engine counters, keyed by name.
func (m *MultiEngine) Stats() map[string]Stats {
	out := make(map[string]Stats, len(m.order))
	for _, s := range m.order {
		out[s.name] = Stats{
			PositiveMatches:   s.eng.PositiveCount(),
			NegativeMatches:   s.eng.NegativeCount(),
			DCGEdges:          s.eng.DCG().NumEdges(),
			IntermediateBytes: s.eng.IntermediateSizeBytes(),
			HeldBytes:         s.eng.DCG().HeldBytes(),
		}
	}
	return out
}

// MQOStats is a snapshot of the multi-query optimization layer
// (DESIGN.md §17): how many distinct sub-patterns the registered queries
// collapsed into and how much maintenance work sharing has avoided.
type MQOStats struct {
	// SubPatterns counts distinct sub-patterns currently registered;
	// SharedSubPatterns counts those whose DCG is shared (>= 2 members);
	// Refs totals the members across all sub-patterns; Twins counts the
	// members that copy an earlier member's evaluation instead of searching
	// (MultiEngine.TwinOf).
	SubPatterns       int
	SharedSubPatterns int
	Refs              int
	Twins             int
	// MaintainRuns counts maintained updates — tree-label updates
	// evaluated on a shared sub-pattern, each maintained once, by the
	// owner; SavedEvals counts the follower maintenance evaluations that
	// deduplicated (a maintained update would otherwise have transitioned
	// each member's private DCG separately: members − 1 per maintained
	// update); SharedReplays counts the follower replays that ran against
	// shared DCGs, twins excluded: they copy and search nothing.
	// SavedEvals/MaintainRuns is the dedup ratio.
	MaintainRuns  uint64
	SavedEvals    uint64
	SharedReplays uint64
}

// MQOStats snapshots the sub-pattern sharing counters; the shape counts are
// derived here from the member lists.
func (m *MultiEngine) MQOStats() MQOStats {
	st := MQOStats{
		SubPatterns:   len(m.shapes),
		MaintainRuns:  m.maintEvals,
		SavedEvals:    m.savedEvals,
		SharedReplays: m.sharedRelays,
	}
	for _, sp := range m.shapes { //tf:unordered-ok counting only
		st.Refs += len(sp.members)
		st.Twins += sp.twins
		if len(sp.members) >= 2 {
			st.SharedSubPatterns++
		}
	}
	return st
}
