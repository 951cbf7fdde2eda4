package turboflux

import (
	"errors"
	"fmt"
	"runtime"

	"turboflux/internal/core"
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

// mslot is one registered query's evaluation state. A run engages a slot
// with at most one update (scheduleRun ends the run otherwise), so the
// run cells are scalars: runN/runErr are written by exactly one pool
// worker (the one evaluating this engine) inside the run window and read
// by the coordinator after the barrier.
type mslot struct {
	name      string
	eng       *core.Engine
	user      core.MatchFunc           // caller's OnMatch, nil if none
	labels    map[graph.Label]struct{} // edge labels the query mentions
	buf       fanout.EmissionBuffer
	buffering bool // true inside the run window; routes OnMatch to buf

	// pos is the slot's index in the registration order, addressing the
	// coordinator's routing bitset. runIdx is the batch index of the update
	// the current run engaged the slot with; runTask evaluates it.
	pos     int
	runTask func() // persistent pool task: evaluate batch[runIdx]
	runIdx  int32
	runN    int64
	runErr  error

	// sub is the slot's refcounted sub-pattern (DESIGN.md §17), nil when
	// the query's options are unshareable. While the sub-pattern has a
	// single member the slot's engine stays private; at two members it is
	// promoted to shared-DCG evaluation.
	sub *subpat
}

// subpat is the evaluation state of one distinct sub-pattern (spanning
// tree shape): the member slots sharing it, and — once two or more
// members exist — the maintainer engine owning the shared DCG. Members
// replay read-only against the maintained state, so within one update a
// sub-pattern is a single-writer unit: the maintainer applies the DCG
// transitions exactly once (before member replays on insertion, after
// them on deletion) and the members' searches parallelize freely.
type subpat struct {
	entry   *mqo.Entry
	members []*mslot // registration order

	// maint owns the shared DCG and applies all transitions; nil while
	// the sub-pattern has a single (private) member.
	maint *core.Engine

	// treeLabels[l] reports whether l is a spanning-tree edge label of
	// the sub-pattern: the updates that actually transition the shared
	// DCG. Dense by label, built at promotion.
	treeLabels []bool
}

// treeRelevant reports whether label l transitions this sub-pattern's
// shared DCG.
//
//tf:hotpath
func (sp *subpat) treeRelevant(l graph.Label) bool {
	return int(l) < len(sp.treeLabels) && sp.treeLabels[l]
}

// MultiEngine runs several continuous queries over one shared data graph,
// the deployment shape of the paper's motivating applications (a fraud
// team monitors many ring patterns, an IDS many attack signatures). Each
// registered query maintains its own DCG (or shares one with the queries
// of the same spanning-tree shape, DESIGN.md §17); the data graph is
// mutated once per update and every relevant engine evaluates against it.
//
// There is one evaluation path (DESIGN.md §11): updates are scheduled
// into runs of consecutive updates that engage disjoint engines, each
// run's evaluations share one frozen-graph window on a persistent worker
// pool (size SetFanOutWorkers, default GOMAXPROCS), and the OnMatch
// emissions buffered per engine inside the window are replayed in
// (update, registration) order after the barrier — so transcripts, counts
// and errors are those of evaluating every engine on every update in
// turn. A single Insert/Delete/Apply is a run of one. Engines whose
// queries cannot mention the updated edge's label are skipped entirely
// (their evaluation would be a structural no-op).
//
// MultiEngine is not safe for concurrent use, matching Engine. The
// network server serializes all access through its engine-owner
// goroutine (machine-checked by turboflux-vet's actor-confinement
// analyzer).
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

	evals   uint64 // engine evaluations run
	skipped uint64 // evaluations elided by label-relevance routing

	// one is the batch Insert/Delete/Apply hand to the run scheduler: a
	// single update is a run of one, with no path of its own.
	one [1]stream.Update

	// Run scheduler state: the batch being evaluated (read by the slots'
	// runTask thunks) and reused per-run scratch — see DESIGN.md §11.
	// engaged is the routing bitset over registration positions; runEdges
	// detects same-edge conflicts; runSlots lists the run's engaged slots in (update,
	// registration) order — the replay order; runDels holds the run's
	// deletions, applied to the graph after the barrier (Algorithm 2:
	// deletions evaluate before removal). batchErrs[k] is the k-th
	// evaluation error of the batch, raised by the update at batchErrAt[k].
	batch       []stream.Update
	engaged     []uint64
	runEdges    edgeSet
	runSlots    []*mslot
	runDels     []Edge
	tasks       []func()
	batchCounts map[string]int64
	batchErrs   []error
	batchErrAt  []int32

	// shardTasks are prebuilt per-worker composite tasks: shard k walks
	// runSlots[k], runSlots[k+W], ... calling each slot's runTask. When
	// a run engages more slots than the pool has workers, dispatching one
	// shard per worker instead of one task per slot caps the barrier at
	// W-1 channel handoffs per run. Rebuilt when the pool is resized.
	shardTasks []func()

	// Multi-query optimization state (DESIGN.md §17): the sub-pattern
	// registry and the promoted (maintainer-owning) sub-patterns in
	// promotion order; runSubs lists the current run's scheduled
	// maintenance (sub-pattern, update index) pairs.
	reg          *mqo.Registry
	subs         []*subpat
	runSubs      []runSub
	maintEvals   uint64 // maintainer evaluations run
	savedEvals   uint64 // member maintenance evaluations avoided by sharing
	sharedRelays uint64 // member replays against a shared DCG
}

// runSub schedules one maintenance evaluation of a run: sp's maintainer
// processes the update at idx (before member replays for insertions,
// after them for deletions).
type runSub struct {
	sp  *subpat
	idx int32
}

// NewMultiEngine wraps the initial data graph g0. The MultiEngine takes
// ownership of g0: route every mutation through it.
func NewMultiEngine(g0 *Graph) *MultiEngine {
	m := &MultiEngine{
		g:     g0,
		slots: make(map[string]*mslot),
		pool:  fanout.New(0),
		reg:   mqo.NewRegistry(),
	}
	m.buildShards()
	return m
}

// buildShards rebuilds the per-worker composite run tasks for the
// current pool size. Each engaged slot belongs to exactly one shard, so
// its emission buffer and run cells stay single-writer.
func (m *MultiEngine) buildShards() {
	w := m.pool.Workers()
	m.shardTasks = m.shardTasks[:0]
	for k := 0; k < w; k++ {
		k := k
		m.shardTasks = append(m.shardTasks, func() {
			for j := k; j < len(m.runSlots); j += w {
				m.runSlots[j].runTask()
			}
		})
	}
}

// SetFanOutWorkers resizes the fan-out worker pool; n <= 0 means
// GOMAXPROCS. The pool size changes only where a run's tasks execute:
// with n == 1 every task runs inline on the caller's goroutine, through
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
	m.pool = fanout.New(n)
	m.buildShards()
}

// FanOutWorkers returns the configured fan-out pool size.
func (m *MultiEngine) FanOutWorkers() int { return m.pool.Workers() }

// FanOutStats snapshots the fan-out counters.
func (m *MultiEngine) FanOutStats() FanOutStats {
	st := m.pool.Stats()
	st.Evals = m.evals
	st.Skipped = m.skipped
	return st
}

// Close releases the fan-out worker pool. The engine itself stays
// usable — subsequent updates evaluate inline — so Close is only about
// reclaiming the pool goroutines. It always returns nil.
func (m *MultiEngine) Close() error {
	m.pool.Close()
	return nil
}

// Register adds a continuous query under the given name. The query's
// spanning tree is canonicalized into a sub-pattern key: the first
// registration of a shape builds a private DCG over the current graph
// state, the second promotes that DCG to shared (one maintainer, members
// replay read-only), and later ones join it without any DCG construction
// at all. Unshareable options (work budget, ablations, WCO search) keep
// the query fully private. Registering a duplicate name fails.
func (m *MultiEngine) Register(name string, q *Query, opt Options) error {
	if _, dup := m.slots[name]; dup {
		return fmt.Errorf("turboflux: query %q already registered", name)
	}
	s := &mslot{name: name, user: opt.OnMatch, labels: queryEdgeLabels(q)}
	copt := core.DefaultOptions()
	copt.Semantics = opt.Semantics
	copt.Search = opt.Search
	copt.WorkBudget = opt.WorkBudget
	if s.user != nil {
		// Inside the run window emissions go to the slot's buffer (written
		// only by the worker evaluating this engine); outside it — the
		// InitialMatches walk — straight through.
		copt.OnMatch = func(positive bool, mapping []graph.VertexID) {
			if s.buffering {
				s.buf.Record(positive, mapping)
			} else {
				s.user(positive, mapping)
			}
		}
	}
	tree, err := core.BuildTree(m.g, q, copt)
	if err != nil {
		return err
	}
	if core.OptionsShareable(copt) {
		ent, created := m.reg.Acquire(mqo.KeyOf(q, tree))
		if created {
			// First member of this shape: private DCG until a second joins.
			sp := &subpat{entry: ent}
			ent.Payload = sp
			eng, err := core.NewWithTree(m.g, q, tree, copt, nil)
			if err != nil {
				m.reg.Release(ent)
				return err
			}
			s.eng = eng
			sp.members = append(sp.members, s)
			s.sub = sp
		} else {
			sp := ent.Payload.(*subpat)
			if sp.maint == nil {
				m.promote(sp)
			}
			eng, err := core.NewWithTree(m.g, q, tree, copt, sp.maint.DCG())
			if err != nil {
				m.reg.Release(ent)
				return err
			}
			eng.ShareDCG()
			s.eng = eng
			sp.members = append(sp.members, s)
			s.sub = sp
		}
	} else {
		eng, err := core.NewWithTree(m.g, q, tree, copt, nil)
		if err != nil {
			return err
		}
		s.eng = eng
	}
	s.runTask = func() {
		u := m.batch[s.runIdx]
		if u.Op == stream.OpInsert {
			s.runN, s.runErr = s.eng.EvalInsertedEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
		} else {
			s.runN, s.runErr = s.eng.EvalBeforeDelete(u.Edge.From, u.Edge.Label, u.Edge.To)
		}
	}
	m.slots[name] = s
	m.order = append(m.order, s)
	m.indexSlot(s)
	return nil
}

// promote flips a single-member sub-pattern to shared evaluation: the
// sole member's DCG is adopted by a fresh maintainer engine and the
// member switches to read-only replay. Incremental maintenance keeps the
// DCG at the declarative fixpoint of the current graph, so the adopted
// state is exactly what a fresh build would produce — joining members
// compute their matching orders from it directly.
func (m *MultiEngine) promote(sp *subpat) {
	donor := sp.members[0]
	donor.eng.ShareDCG()
	sp.maint = core.NewMaintainer(donor.eng)
	tree := donor.eng.Tree()
	for u := 0; u < tree.Q.NumVertices(); u++ {
		if graph.VertexID(u) == tree.Root {
			continue
		}
		l := tree.ParentEdge[u].Label
		for int(l) >= len(sp.treeLabels) {
			sp.treeLabels = append(sp.treeLabels, false)
		}
		sp.treeLabels[l] = true
	}
	m.subs = append(m.subs, sp)
}

// demote returns a sub-pattern to single-member private evaluation: the
// surviving member takes DCG ownership back and the maintainer is
// dropped. The survivor's rootSeen cache may have missed vertices the
// maintainer settled — missing entries just re-probe on the next update.
func (m *MultiEngine) demote(sp *subpat) {
	sp.members[0].eng.UnshareDCG()
	sp.maint = nil
	sp.treeLabels = sp.treeLabels[:0]
	for i, t := range m.subs {
		if t == sp {
			m.subs = append(m.subs[:i], m.subs[i+1:]...)
			break
		}
	}
}

// indexSlot appends a newly registered slot to the label index — O(number
// of labels the query mentions), keeping registration of N queries O(N)
// total instead of the O(N²) a full per-registration rebuild costs.
// Appending preserves the per-label registration order because the new
// slot's position is the maximum.
func (m *MultiEngine) indexSlot(s *mslot) {
	s.pos = len(m.order) - 1
	for l := range s.labels { //tf:unordered-ok each label's list keeps registration order; membership is per label
		for int(l) >= len(m.byLabel) {
			m.byLabel = append(m.byLabel, nil)
		}
		m.byLabel[l] = append(m.byLabel[l], s)
	}
	for len(m.order) > 64*len(m.engaged) {
		m.engaged = append(m.engaged, 0)
	}
}

// unindexSlot removes an unregistered slot from the label index and
// renumbers the positions of the slots registered after it, preserving
// per-label registration order.
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
	for i, t := range m.order {
		t.pos = i
	}
	for j := range m.engaged {
		m.engaged[j] = 0
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

// Unregister removes a query and reports whether it was registered. A
// shared sub-pattern member releases its reference: at one remaining
// member the sub-pattern demotes back to private evaluation, at zero the
// registry entry is dropped and the shared DCG is garbage.
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
	if sp := s.sub; sp != nil {
		for i, t := range sp.members {
			if t == s {
				sp.members = append(sp.members[:i], sp.members[i+1:]...)
				break
			}
		}
		left := m.reg.Release(sp.entry)
		if left == 1 && sp.maint != nil {
			m.demote(sp)
		}
	}
	return true
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

// Apply applies one stream update: a batch of one through the run
// scheduler, with ApplyBatch's failure semantics. Every relevant engine is
// evaluated even when an earlier one fails, partial counts are returned,
// and the per-query errors are aggregated with errors.Join, each wrapped
// as `query "name"`, so errors.Is still detects ErrWorkBudget. A
// budget-aborted engine has rolled back its own DCG transition for this
// update — its standing matches for this edge may be stale until a later
// update touches the same region — but every other engine and the graph
// itself stay exactly in sync with the stream.
func (m *MultiEngine) Apply(u Update) (map[string]int64, error) {
	m.one[0] = u
	counts := m.evalBatch(m.one[:], nil)
	return counts, errors.Join(m.batchErrs...)
}

// ApplyBatch applies a whole batch of stream updates with batched
// evaluation: label routing, worker dispatch and the ordered emission
// replay are amortized over runs of consecutive updates instead of paid
// per update (DESIGN.md §11). Observable behavior — the OnMatch
// transcript of every query, the aggregated per-query counts, and the
// final graph — is byte-identical to applying the batch one update at a
// time with Apply. A failing update does not stop the batch: every
// update is applied and evaluated, and the per-update errors are
// aggregated with errors.Join, each wrapped as `update i: query "name"`,
// so errors.Is still detects ErrWorkBudget.
//
// The returned counts map aggregates per-query match counts over the
// whole batch (non-zero entries only).
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
	counts := m.evalBatch(ups, boundary)
	for k, err := range m.batchErrs {
		m.batchErrs[k] = fmt.Errorf("update %d: %w", m.batchErrAt[k], err) //tf:alloc-ok error path
	}
	return counts, errors.Join(m.batchErrs...)
}

// evalBatch runs ups through the run scheduler and returns the aggregated
// counts; the evaluation errors are left in batchErrs/batchErrAt for the
// entry point to word (errors.Join copies, so the scratch is reused by
// the next batch).
//
//tf:hotpath
func (m *MultiEngine) evalBatch(ups []stream.Update, boundary func(i int)) map[string]int64 {
	m.batch = ups
	m.batchErrs = m.batchErrs[:0]
	m.batchErrAt = m.batchErrAt[:0]
	for i := 0; i < len(ups); {
		i = m.scheduleRun(i, boundary)
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

// edgeSet is the set of edges the current run has touched: an
// open-addressed table whose entries carry the epoch of the run that
// wrote them, so starting a run clears nothing and stale entries count as
// empty. It is at most half full, and doubles only when one run outgrows
// that — a run is no longer than its batch.
type edgeSet struct {
	tab   []runEdge // length a power of two
	epoch uint32
	n     int // entries of the current epoch
}

type runEdge struct {
	e     Edge
	epoch uint32
}

// begin starts a new run with an empty set.
//
//tf:hotpath
func (s *edgeSet) begin() {
	s.n = 0
	if s.epoch++; s.epoch == 0 { // wrapped: entries of 2^32 runs ago would look current
		clear(s.tab)
		s.epoch = 1
	}
}

// find returns the table position of e in the current run, or the empty
// position it belongs at.
//
//tf:hotpath
func (s *edgeSet) find(e Edge) (pos int, found bool) {
	h := (uint64(e.From)<<32|uint64(e.To))*0x9E3779B97F4A7C15 ^ uint64(e.Label)*0xC2B2AE3D27D4EB4F
	mask := len(s.tab) - 1
	for pos = int(h>>32) & mask; s.tab[pos].epoch == s.epoch; pos = (pos + 1) & mask {
		if s.tab[pos].e == e {
			return pos, true
		}
	}
	return pos, false
}

//tf:hotpath
func (s *edgeSet) has(e Edge) bool {
	if s.n == 0 {
		return false
	}
	_, found := s.find(e)
	return found
}

//tf:hotpath
func (s *edgeSet) add(e Edge) {
	if 2*(s.n+1) > len(s.tab) {
		old := s.tab
		s.tab = make([]runEdge, max(64, 2*len(old))) //tf:alloc-ok doubles until the longest run fits, then never
		for _, r := range old {
			if r.epoch == s.epoch {
				pos, _ := s.find(r.e)
				s.tab[pos] = r
			}
		}
	}
	if pos, found := s.find(e); !found {
		s.tab[pos] = runEdge{e, s.epoch}
		s.n++
	}
}

// scheduleRun builds and executes one run: the longest prefix of
// ups[start:] in which every registered engine has at most one relevant
// update and no two updates touch the same edge. Within such a run each
// engine's evaluation observes exactly the graph state sequential
// evaluation would show it — an engine only reads adjacency through its
// query's edge labels, and its single relevant update is the only batch
// update carrying one of those labels — so all of the run's evaluations
// can share one frozen-graph window and one pool dispatch. Edge
// insertions are pre-applied in batch order as the run is built;
// deletions evaluate inside the window and mutate the graph after it
// (the paper's Algorithm 2 order). An update that creates vertices (a
// fresh declaration, an insert auto-creating an endpoint) is a run of one,
// so the engines it does not engage are notified of the new vertices in
// exact sequential position. No-ops (duplicate inserts, absent deletes,
// re-declarations) are detected exactly, because any update whose edge
// was already touched in the run forces the run to flush first.
//
// It returns the index of the first update not consumed.
//
//tf:hotpath
func (m *MultiEngine) scheduleRun(start int, boundary func(i int)) int {
	ups := m.batch
	for j := range m.engaged {
		m.engaged[j] = 0
	}
	m.runEdges.begin()
	i := start
loop:
	for i < len(ups) {
		u := ups[i]
		switch u.Op {
		case stream.OpInsert:
			e := u.Edge
			if m.runEdges.has(e) {
				break loop // same-edge conflict: next run re-examines it
			}
			newFrom := !m.g.HasVertex(e.From)
			newTo := e.To != e.From && !m.g.HasVertex(e.To)
			if (newFrom || newTo) && i > start {
				break loop
			}
			rel := m.relevant(e.Label)
			if m.anyEngaged(rel) {
				break loop
			}
			if !m.g.InsertEdge(e.From, e.Label, e.To) {
				i++ // duplicate: sequential no-op
				continue
			}
			m.touchEdge(e, i)
			m.engageRun(i, rel)
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
			if m.runEdges.has(e) {
				break loop
			}
			if !m.g.HasEdge(e.From, e.Label, e.To) {
				i++ // absent: sequential no-op
				continue
			}
			rel := m.relevant(e.Label)
			if m.anyEngaged(rel) {
				break loop
			}
			m.touchEdge(e, i)
			m.engageRun(i, rel)
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
			// No effects; the update keeps its boundary slot in the flush walk.
			m.fail(i, fmt.Errorf("turboflux: unknown update op %d", u.Op)) //tf:alloc-ok error path
			i++
		}
	}
	m.flushRun(start, i, boundary)
	return i
}

// notifyVertexAdded routes root-candidate bookkeeping for a vertex the
// current run of one just created to the engines that run does not
// evaluate: every slot it has not engaged (shared members no-op — their
// DCG is not theirs to touch) plus every maintainer it has not scheduled,
// which settles the vertex once per shared sub-pattern instead of once
// per member. Engaged engines settle the new endpoints themselves.
// Vertex creation is rare at steady state, so the scans stay off the
// common path.
func (m *MultiEngine) notifyVertexAdded(v VertexID) {
	for _, s := range m.order {
		if !m.isEngaged(s) {
			s.eng.NotifyVertexAdded(v)
		}
	}
next:
	for _, sp := range m.subs {
		for _, rs := range m.runSubs {
			if rs.sp == sp {
				continue next
			}
		}
		sp.maint.NotifyVertexAdded(v)
	}
}

// touchEdge records that the batch update at idx applied or scheduled e in
// the current run, so that a later update of the same edge ends the run.
// The batch's last update has no later update to stop — which keeps the
// set out of single-update traffic altogether.
//
//tf:hotpath
func (m *MultiEngine) touchEdge(e Edge, idx int) {
	if idx+1 < len(m.batch) {
		m.runEdges.add(e)
	}
}

// relevant returns the slots whose queries mention label l, in
// registration order.
func (m *MultiEngine) relevant(l Label) []*mslot {
	if int(l) < len(m.byLabel) {
		return m.byLabel[l]
	}
	return nil
}

// isEngaged reports whether the current run has engaged slot s (the
// routing bitset over registration positions).
//
//tf:hotpath
func (m *MultiEngine) isEngaged(s *mslot) bool {
	return m.engaged[s.pos>>6]&(1<<(uint(s.pos)&63)) != 0
}

// anyEngaged reports whether any of rel is already engaged in the
// current run.
//
//tf:hotpath
func (m *MultiEngine) anyEngaged(rel []*mslot) bool {
	for _, s := range rel {
		if m.isEngaged(s) {
			return true
		}
	}
	return false
}

// engageRun schedules the batch update at idx onto every relevant slot:
// marks the slots engaged and appends them to the run in (update,
// registration) order. None of rel is engaged yet — scheduleRun ends the
// run first — so each slot carries exactly one update per run. The
// routing and sharing counters are counted here and nowhere else.
//
//tf:hotpath
func (m *MultiEngine) engageRun(idx int, rel []*mslot) {
	l := m.batch[idx].Edge.Label
	for _, s := range rel {
		m.engaged[s.pos>>6] |= 1 << (uint(s.pos) & 63)
		s.runIdx = int32(idx)
		m.runSlots = append(m.runSlots, s)
		// A tree-relevant update transitions the sub-pattern's shared DCG:
		// schedule exactly one maintenance evaluation for it, at the first
		// member. (Such an update engages every member, so it is this
		// sub-pattern's only update in the run; non-tree-relevant updates
		// touch no shared state and need none.)
		if sp := s.sub; sp != nil && sp.maint != nil && s == sp.members[0] && sp.treeRelevant(l) {
			m.runSubs = append(m.runSubs, runSub{sp: sp, idx: int32(idx)})
			m.maintEvals++
			m.savedEvals += uint64(len(sp.members) - 1)
			m.sharedRelays += uint64(len(sp.members))
		}
	}
	m.evals += uint64(len(rel))
	m.skipped += uint64(len(m.order) - len(rel))
}

// flushRun executes the scheduled run — maintain the shared DCGs, then
// SubgraphSearch, the paper's Algorithm 2 per update: one pool dispatch
// over the engaged slots (each evaluating its one update against the
// frozen graph), then one ordered replay of the buffered emissions in
// (update index, registration order) with per-update boundaries
// interleaved, then the deferred deletions leave the graph.
//
//tf:hotpath
func (m *MultiEngine) flushRun(start, end int, boundary func(i int)) {
	// Shared-DCG maintenance for the run's insertions happens before the
	// window opens: member replays gate on the post-maintenance state. The
	// graph already holds every run insertion (pre-applied in batch
	// order), and a maintainer only reads adjacency through its tree
	// labels, whose single run update is the one it is maintaining — the
	// same frozen-window argument the member evaluations rely on.
	for _, rs := range m.runSubs {
		if u := m.batch[rs.idx]; u.Op == stream.OpInsert {
			rs.sp.maint.MaintainInsertedEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
		}
	}
	for _, s := range m.runSlots {
		s.buf.Reset()
		s.buffering = true
	}
	tasks := m.tasks[:0]
	if len(m.runSlots) > len(m.shardTasks) {
		// More engaged engines than workers: one composite shard per
		// worker instead of one task per slot keeps the barrier at
		// W-1 handoffs however many engines the run engaged.
		tasks = append(tasks, m.shardTasks...)
	} else {
		for _, s := range m.runSlots {
			tasks = append(tasks, s.runTask)
		}
	}
	m.tasks = tasks[:0]
	m.pool.Run(tasks)
	next := start
	for _, s := range m.runSlots {
		s.buffering = false
		if boundary != nil {
			for ; next < int(s.runIdx); next++ {
				boundary(next)
			}
		}
		if s.user != nil {
			s.buf.Replay(s.user)
		}
		if s.runN != 0 {
			if m.batchCounts == nil {
				m.batchCounts = make(map[string]int64)
			}
			m.batchCounts[s.name] += s.runN
		}
		if s.runErr != nil {
			m.fail(int(s.runIdx), fmt.Errorf("query %q: %w", s.name, s.runErr)) //tf:alloc-ok error path
		}
	}
	if boundary != nil {
		for ; next < end; next++ {
			boundary(next)
		}
	}
	// Shared-DCG maintenance for the run's deletions happens after every
	// member has replayed against the still-intact state and before the
	// edges leave the graph (Algorithm 2's evaluate-before-remove order);
	// shared members then re-sample their matching orders against the
	// post-clearing DCG, where a private engine would have adjusted.
	for _, rs := range m.runSubs {
		if u := m.batch[rs.idx]; u.Op == stream.OpDelete {
			rs.sp.maint.MaintainBeforeDelete(u.Edge.From, u.Edge.Label, u.Edge.To)
		}
	}
	for _, s := range m.runSlots {
		if m.batch[s.runIdx].Op == stream.OpDelete && s.eng.SharedMember() {
			s.eng.AdjustOrderDeferred()
		}
	}
	for _, e := range m.runDels {
		m.g.DeleteEdge(e.From, e.Label, e.To)
	}
	m.runDels = m.runDels[:0]
	m.runSlots = m.runSlots[:0]
	m.runSubs = m.runSubs[:0]
}

// Graph returns the shared data graph. Treat it as read-only.
func (m *MultiEngine) Graph() *Graph { return m.g }

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

// TotalIntermediateBytes sums the maintained intermediate-result sizes,
// counting each shared DCG once (at its first member) rather than once
// per member — the memory actually held, and the denominator the mqo
// benchmark's footprint comparison uses.
func (m *MultiEngine) TotalIntermediateBytes() int64 {
	var t int64
	for _, s := range m.order {
		if sp := s.sub; sp != nil && sp.maint != nil && s != sp.members[0] {
			continue
		}
		t += s.eng.IntermediateSizeBytes()
	}
	return t
}

// MQOStats is a snapshot of the multi-query optimization layer
// (DESIGN.md §17): how many distinct sub-patterns the registered queries
// collapsed into and how much maintenance work sharing has avoided.
type MQOStats struct {
	// SubPatterns counts distinct sub-patterns currently registered;
	// SharedSubPatterns counts those promoted to a shared DCG (>= 2
	// members); Refs totals the members across all sub-patterns.
	SubPatterns       int
	SharedSubPatterns int
	Refs              int
	// MaintainRuns counts maintainer evaluations executed; SavedEvals
	// counts the member maintenance evaluations they deduplicated (a
	// maintained update would otherwise have transitioned each member's
	// private DCG separately); SharedReplays counts member replays
	// against shared DCGs. SavedEvals/MaintainRuns is the dedup ratio.
	MaintainRuns  uint64
	SavedEvals    uint64
	SharedReplays uint64
}

// MQOStats snapshots the sub-pattern sharing counters.
func (m *MultiEngine) MQOStats() MQOStats {
	return MQOStats{
		SubPatterns:       m.reg.Len(),
		SharedSubPatterns: len(m.subs),
		Refs:              m.reg.TotalRefs(),
		MaintainRuns:      m.maintEvals,
		SavedEvals:        m.savedEvals,
		SharedReplays:     m.sharedRelays,
	}
}
