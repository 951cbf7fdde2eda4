package server

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"turboflux"
	"turboflux/internal/durable"
	"turboflux/internal/graph"
	"turboflux/internal/qlang"
	"turboflux/internal/stats"
	"turboflux/internal/stream"
)

type reqKind uint8

const (
	reqApply reqKind = iota
	reqRegister
	reqUnregister
	reqQueries
	reqLabel
	reqSubscribe
	reqDropConn
	reqStats
	reqReplicate    // register a replication stream (leader)
	reqReplAck      // record a follower's acknowledged LSN (leader)
	reqReplCaughtUp // release a stream's catch-up pin (leader)
	reqReplFrames   // apply a replicated chunk (follower)
	reqReplSeed     // adopt a leader snapshot (follower)
	reqReplStatus   // record the link's state (follower)
	reqReplLSN      // read the durable LSN (follower link positioning)
	reqPromote      // flip follower to leader
)

// request is one message to the engine-owner goroutine.
type request struct {
	kind   reqKind
	ups    []stream.Update // the run to apply (reqApply)
	name   string          // query name / "vertex" / "edge"
	arg    string          // pattern / label name
	sub    *subscriber
	connID uint64

	// Replication payloads.
	lsn   uint64 // follower applied LSN / acked LSN / chunk first LSN / leader LSN (reqReplStatus)
	count int    // record count of a replicated chunk
	data  []byte // raw snapshot or frame bytes
	addr  string // follower's remote address (STATS)
	up    bool   // the follower's link is in a session (reqReplStatus)
}

type response struct {
	seq    uint64
	total  int64
	counts map[string]int64
	names  []string
	lines  []string
	label  graph.Label
	plan   *durable.Plan // catch-up plan (reqReplicate)
	feed   <-chan chunk  // live-frame feed (reqReplicate)
}

// actor is the engine-owner goroutine (the serving subsystem's core): it
// serializes every graph mutation, query registration and subscription
// change onto the single-threaded MultiEngine, so any number of
// connections can drive it concurrently. A match reported by an engine is
// rendered once, at emission, and copied into the outbox of every
// connection subscribed to its query — in emission order — before the
// update is acknowledged.
type actor struct {
	eng   *turboflux.MultiEngine // journaling in durable mode: eng.Store() != nil
	vdict *turboflux.Dict
	edict *turboflux.Dict

	policy SlowPolicy
	depth  int

	// Replication state, actor-owned. role is set before the actor starts
	// (Options.Follow) and flipped by reqPromote; followers holds one
	// handle per live replication stream, keyed by connection id.
	role       role
	leaderAddr string // follower mode: the leader's address (STATS)
	followers  map[uint64]*followerHandle
	linkUp     bool   // follower mode: the link is in a session
	leaderLSN  uint64 // follower mode: the newest leader LSN the link has seen

	box Mailbox[request, response] // runs handle and shutdown

	subs  map[string]*subList // one list per registered query
	burst *subList            // the query whose rendered lines line holds
	line  []byte              // scratch: the burst's event lines
	ends  []int               // end offset of each line in line
	dirty []*outbox           // outboxes that took bytes during this request
	seq   uint64              // global update sequence number (acked to clients)

	// Counters surfaced by STATS; owned by the actor goroutine.
	updates   uint64
	events    uint64
	drops     uint64
	evictions uint64
	lat       *stats.Latency

	front    *Front // the front end serving this actor (STATS conns=)
	closeErr error  // store-close error, read after box.Stop

	// boundary is the persistent per-update hook handed to ApplyBatchFunc
	// (built once so batch frames allocate no closures).
	boundary func(i int)

	// ids is the memo every event body's vertex ids are copied from (emit).
	ids idMemo

	// Cold state, kept behind the fields emit and the connections' sends
	// touch on every request. link is a follower's replication link (nil on
	// a born leader), set before the actor starts and never touched by it:
	// Promote and Stop end it from their own goroutines.
	link *link
}

func newActor(eng *turboflux.MultiEngine, vdict, edict *turboflux.Dict, policy SlowPolicy, depth int) *actor {
	a := &actor{
		eng:    eng,
		vdict:  vdict,
		edict:  edict,
		policy: policy,
		depth:  depth,
		subs:   make(map[string]*subList),
		lat:    stats.NewLatency(0),

		followers: make(map[uint64]*followerHandle),
		// Acked sequence numbers equal WAL LSNs in durable mode (LSN is 0
		// in memory), so a follower applying the same journal emits
		// byte-identical events.
		seq: eng.LSN(), //tf:actor-ok construction precedes actor start
	}
	a.boundary = func(int) {
		a.seq++
		a.updates++
	}
	return a
}

// shutdown runs on the mailbox once the requests already queued are
// handled: it flushes every subscriber queue by closing the subscriptions
// and closes the engine (fan-out pool and, in durable mode, the store).
//
//tf:actor-loop
func (a *actor) shutdown() {
	//tf:unordered-ok closing subscriptions; each outbox keeps its own order
	for _, l := range a.subs {
		for _, s := range l.subs {
			s.close()
		}
	}
	// Release any replication streams whose teardown message never
	// arrived, so their feeds close and their compaction pins lift.
	//tf:unordered-ok independent per-follower teardown
	for id := range a.followers {
		a.dropRepl(id)
	}
	// Close releases the fan-out worker pool and, in durable mode, syncs
	// and closes the WAL.
	a.closeErr = a.eng.Close()
}

// handle is the mailbox's handler, one request at a time. Everything that
// touches the engine happens here or below: it and shutdown are the roots
// the actor-confinement analyzer proves every owned-type access reachable
// from.
//
//tf:actor-loop
func (a *actor) handle(req request) (resp response, err error) {
	switch req.kind {
	case reqApply:
		if a.role == roleFollower {
			err = errFollowerReadOnly
			break
		}
		resp.seq, resp.counts, err = a.apply(req.ups)
		//tf:unordered-ok summing counts is order-independent
		for _, n := range resp.counts {
			resp.total += n
		}
	case reqRegister:
		err = a.register(req.name, req.arg)
	case reqUnregister:
		if !a.eng.Unregister(req.name) {
			err = fmt.Errorf("server: query %q is not registered", req.name)
			break
		}
		// Evict the query's subscribers. The list dies with the query's
		// OnMatch hook; a re-registration gets a fresh one.
		for _, s := range a.subs[req.name].subs {
			if s.evict() {
				a.touch(s.ob)
			}
		}
		a.untwin(a.subs[req.name])
		delete(a.subs, req.name)
	case reqQueries:
		resp.names = a.eng.Queries()
	case reqLabel:
		d := a.vdict
		if req.name == "edge" {
			d = a.edict
		}
		if err = qlang.CheckLabel(req.arg, d); err == nil && a.role == roleFollower {
			err = held(req.name, req.arg, d)
		}
		if err == nil {
			resp.label = d.Intern(req.arg)
		}
	case reqSubscribe:
		l := a.subs[req.name]
		if l == nil {
			err = fmt.Errorf("server: query %q is not registered", req.name)
			break
		}
		// A connection ends a subscription by closing it, without a word to
		// the actor; forget those here so a subscribe/unsubscribe loop on a
		// silent query cannot grow the list.
		l.prune()
		l.subs = append(l.subs, req.sub)
		resp.seq = a.seq
	case reqDropConn:
		//tf:unordered-ok removal; event order is unaffected
		for _, l := range a.subs {
			l.dropConn(req.connID)
		}
		a.dropRepl(req.connID)
	case reqStats:
		resp.lines = a.statsLines()
	case reqReplicate:
		resp, err = a.handleReplicate(req)
	case reqReplAck:
		a.handleReplAck(req)
	case reqReplCaughtUp:
		a.handleReplCaughtUp(req.connID)
	case reqReplFrames:
		resp.seq, err = a.handleReplFrames(req)
	case reqReplSeed:
		resp.seq, err = a.handleReplSeed(req)
	case reqReplStatus:
		a.linkUp, a.leaderLSN = req.up, req.lsn
	case reqReplLSN:
		resp.seq = a.eng.LSN()
	case reqPromote:
		resp.seq, err = a.handlePromote()
	default:
		err = fmt.Errorf("server: unknown request kind %d", req.kind)
	}
	a.flushBurst()
	a.wakeWriters()
	return resp, err
}

// subList is one registered query's subscribers. The query's OnMatch hook
// holds the pointer, so emission does no name lookup, and the list lives
// exactly as long as the registration: a hook left over from an
// unregistered query can never reach a later query of the same name.
type subList struct {
	query string
	subs  []*subscriber

	head    []byte // "*EVENT <query> <headSeq> ", rendered once per update
	headSeq uint64

	// Twin rendering (MultiEngine.TwinOf): src is the list of the query
	// whose evaluation this one's copies, nil if none, and twins the lists
	// copying this one's. A twin's j-th match of an update is its source's
	// j-th, so its body is the source's body j; next counts the twin's
	// matches of update headSeq. A source renders every body of update
	// bodySeq into bodies (ends at bodyEnds) when feed: some twin had
	// subscribers at the source's first match of the update, whether the
	// source had or not.
	src      *subList
	twins    []*subList
	next     int
	feed     bool
	bodies   []byte
	bodyEnds []int
	bodySeq  uint64
}

// bodyKeep is the rendered-body storage, in bytes, a source feeding twins
// keeps from one update to the next; what an explosive update grew past it is
// released at the next.
const bodyKeep = 256 << 10

// dropConn closes and removes connID's subscription, if there is one.
func (l *subList) dropConn(connID uint64) {
	for _, s := range l.subs {
		if s.connID == connID {
			s.close()
		}
	}
	l.prune()
}

// prune forgets the finished subscriptions.
func (l *subList) prune() {
	live := l.subs[:0]
	for _, s := range l.subs {
		if !s.finished() {
			live = append(live, s)
		}
	}
	l.subs = live
}

// register parses the pattern through the server's dictionaries and
// registers the query with an OnMatch hook that delivers to the query's
// subscriber list. Parsing happens here, not in the connection goroutine,
// because qlang interns labels into the shared dictionaries; a decimal
// label a numeric dictionary does not hold, or more new labels than a
// dictionary has room for, is refused before that (qlang.CheckLabels), and
// so is, on a follower, a label it does not hold (held).
func (a *actor) register(name, pattern string) error {
	if err := qlang.CheckLabels(pattern, a.vdict, a.edict); err != nil {
		return err
	}
	if a.role == roleFollower {
		vd, ed := graph.NewDict(), graph.NewDict()
		if _, _, err := qlang.Parse(pattern, vd, ed); err != nil {
			return err
		}
		for _, c := range [...]struct {
			kind        string
			named, dict *graph.Dict
		}{{"vertex", vd, a.vdict}, {"edge", ed, a.edict}} {
			for i := range c.named.Len() {
				if err := held(c.kind, c.named.Name(graph.Label(i)), c.dict); err != nil {
					return err
				}
			}
		}
	}
	q, _, err := qlang.Parse(pattern, a.vdict, a.edict)
	if err != nil {
		return err
	}
	l := &subList{query: name}
	onMatch := func(positive bool, m []graph.VertexID) { a.emit(l, positive, m) }
	if err := a.eng.Register(name, q, turboflux.Options{OnMatch: onMatch}); err != nil {
		return err
	}
	a.subs[name] = l
	if src := a.eng.TwinOf(name); src != "" {
		l.src = a.subs[src]
		l.src.twins = append(l.src.twins, l)
	}
	return nil
}

// held refuses a follower's label name that d does not hold. The leader is
// the one minter of label ids: a follower that interned a new name itself
// could give it the id the leader gave another name, and then match that
// name's edges. A follower holds the names it was started with and those
// of the leader's seed (handleReplSeed); it learns no later one (DESIGN
// §14).
func held(kind, name string, d *graph.Dict) error {
	if _, ok := d.Lookup(name); !ok {
		return fmt.Errorf("server: read-only follower holds no %s label %q; label names are minted on the leader", kind, name)
	}
	return nil
}

// untwin takes an unregistered query's list out of its twin group: it
// leaves its source's twins, and its own twins follow the heir the engine
// chose (TwinOf), which now searches for them. Only the group is touched.
func (a *actor) untwin(l *subList) {
	if src := l.src; src != nil {
		src.twins = slices.DeleteFunc(src.twins, func(t *subList) bool { return t == l })
	}
	for _, t := range l.twins {
		t.src = nil
		if src := a.eng.TwinOf(t.query); src != "" {
			t.src = a.subs[src]
			t.src.twins = append(t.src.twins, t)
		}
	}
}

// emit takes one match from an engine and renders its *EVENT line, once,
// onto the burst the actor is collecting for this query. Engines call it on
// the actor goroutine while the update is applied — the run's boundary
// hook and the follower's replicated chunks both advance seq only after an
// update's emissions — so that update's number is seq+1. A body is
// rendered once per twin group: a source whose twins have subscribers
// keeps the update's bodies, and its twins, whose matches come after it in
// the same order, copy them by position. A body's ids are copied from the
// actor's memo of rendered ids and rendered only on a miss (ids, DESIGN
// §10 "Render each id once"). The per-match step: no
// allocation, map lookup, lock or channel operation; consecutive matches
// of a query share one trip through the policy (flushBurst).
//
//tf:hotpath
func (a *actor) emit(l *subList, positive bool, m []graph.VertexID) {
	seq := a.seq + 1
	var body []byte
	if len(l.twins) > 0 {
		if l.bodySeq != seq {
			if cap(l.bodies) > bodyKeep {
				l.bodies = nil
			}
			l.bodies, l.bodyEnds, l.bodySeq, l.feed = l.bodies[:0], l.bodyEnds[:0], seq, false
			for _, t := range l.twins {
				l.feed = l.feed || len(t.subs) > 0
			}
		}
		if l.feed {
			lo := len(l.bodies)
			l.bodies = a.ids.appendBody(l.bodies, positive, m)
			l.bodyEnds = append(l.bodyEnds, len(l.bodies))
			body = l.bodies[lo:]
		}
	}
	if len(l.subs) == 0 {
		return
	}
	if l.headSeq != seq {
		l.head, l.headSeq, l.next = appendEventHead(l.head[:0], l.query, seq), seq, 0
	}
	if src := l.src; src != nil {
		lo := 0
		if l.next > 0 {
			lo = src.bodyEnds[l.next-1]
		}
		body = src.bodies[lo:src.bodyEnds[l.next]]
		l.next++
	}
	if a.burst != l || len(a.line) >= burstBytes {
		a.flushBurst()
		a.burst = l
	}
	a.line = append(a.line, l.head...)
	if body != nil {
		a.line = append(a.line, body...)
	} else {
		a.line = a.ids.appendBody(a.line, positive, m)
	}
	a.line = append(a.line, '\n')
	a.ends = append(a.ends, len(a.line))
}

// burstBytes bounds the rendered lines the actor collects before it
// delivers them; a burst also ends when another query emits and when the
// request ends, so per-connection order is emission order.
const burstBytes = 4 << 10

// flushBurst delivers the collected lines to every live subscriber of
// their query, under the slow-consumer policy: N subscribers cost one
// render and N copies.
//
//tf:hotpath
func (a *actor) flushBurst() {
	l := a.burst
	if l == nil {
		return
	}
	gone := false
	for _, s := range l.subs {
		p := s.push(a.line, a.ends, a.policy)
		a.events += uint64(p.queued)
		a.drops += uint64(p.dropped)
		if p.evicted {
			a.evictions++
		}
		if p.queued > 0 || p.evicted {
			a.touch(s.ob)
		}
		gone = gone || p.evicted || p.gone
	}
	if gone {
		l.prune()
	}
	a.burst, a.line, a.ends = nil, a.line[:0], a.ends[:0]
}

// touch queues ob for the end-of-request wake.
func (a *actor) touch(ob *outbox) {
	if !ob.dirty {
		ob.dirty = true
		a.dirty = append(a.dirty, ob)
	}
}

// wakeWriters wakes, once per request, the writer of every connection
// that took bytes while it was handled.
func (a *actor) wakeWriters() {
	for i, ob := range a.dirty {
		ob.dirty = false
		ob.mu.Lock()
		ob.wakeWriter()
		ob.mu.Unlock()
		a.dirty[i] = nil
	}
	a.dirty = a.dirty[:0]
}

// apply executes a run — a single update line is a run of one, a
// BATCH/BATCHB frame a longer one — through the engine's batched pipeline
// (journaling the run as one log write in durable mode) and returns the
// sequence number of its first update. The boundary hook preserves the
// per-update serving contract: it fires once per run index, after that
// update's matches have been emitted and before any later update's, so
// each event is stamped with its own update's sequence number and
// delivered before the next update's events — the same interleaving a
// client driving updates one at a time would observe. An engine error on
// one update does not abandon the rest of the run: every update is
// applied and the per-update errors are aggregated.
//
//tf:hotpath
func (a *actor) apply(ups []stream.Update) (uint64, map[string]int64, error) {
	start := time.Now()
	first := a.seq + 1
	counts, err := a.eng.ApplyBatchFunc(ups, a.boundary)
	a.lat.ObserveN(time.Since(start), len(ups))
	return first, counts, err
}

// statsLines renders the STATS payload: one server line, one apply-latency
// line, an optional WAL line, then one line per registered query and one
// per live subscription, in deterministic order.
func (a *actor) statsLines() []string {
	var subCount int
	//tf:unordered-ok counting
	for _, l := range a.subs {
		l.prune() // report live subscriptions only
		subCount += len(l.subs)
	}
	lines := make([]string, 0, 3+len(a.subs)+subCount)
	lines = append(lines, fmt.Sprintf(
		"server conns=%d policy=%s queue_cap=%d seq=%d updates=%d events=%d dropped=%d evicted=%d",
		a.front.Conns(), a.policy, a.depth, a.seq, a.updates, a.events, a.drops, a.evictions))
	qs := a.lat.Quantiles(50, 95, 99)
	lines = append(lines, fmt.Sprintf("apply_latency n=%d p50_ns=%d p95_ns=%d p99_ns=%d",
		a.lat.Count(), qs[0].Nanoseconds(), qs[1].Nanoseconds(), qs[2].Nanoseconds()))
	fs := a.eng.FanOutStats()
	lines = append(lines, fmt.Sprintf(
		"fanout workers=%d evals=%d skipped=%d pooled=%d batches=%d busy_ns=%d",
		fs.Workers, fs.Evals, fs.Skipped, fs.Pooled, fs.Batches, fs.BusyNs))
	ms := a.eng.MQOStats()
	lines = append(lines, fmt.Sprintf(
		"mqo subpats=%d shared=%d refs=%d maintain=%d saved=%d replays=%d twins=%d",
		ms.SubPatterns, ms.SharedSubPatterns, ms.Refs, ms.MaintainRuns, ms.SavedEvals, ms.SharedReplays, ms.Twins))
	if st := a.eng.Store(); st != nil {
		lines = append(lines, fmt.Sprintf("wal lsn=%d snap_lsn=%d", st.LSN(), st.SnapLSN()))
	}
	lines = a.replStatsLines(lines)
	engStats := a.eng.Stats()
	for _, name := range a.eng.Queries() {
		st := engStats[name]
		lines = append(lines, fmt.Sprintf("query %s pos=%d neg=%d dcg_edges=%d bytes=%d held=%d subs=%d",
			name, st.PositiveMatches, st.NegativeMatches, st.DCGEdges, st.IntermediateBytes, st.HeldBytes, len(a.subs[name].subs)))
	}
	names := make([]string, 0, len(a.subs))
	//tf:unordered-ok keys are sorted before emission
	for name := range a.subs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, s := range a.subs[name].subs {
			s.ob.mu.Lock()
			depth := s.queued()
			s.ob.mu.Unlock()
			lines = append(lines, fmt.Sprintf(
				"sub %s conn=%d depth=%d cap=%d enqueued=%d dropped=%d max_depth=%d",
				name, s.connID, depth, s.cap, s.enqueued, s.dropped, s.maxDepth))
		}
	}
	for i, l := range lines {
		if strings.ContainsAny(l, "\r\n") {
			lines[i] = strings.NewReplacer("\r", " ", "\n", " ").Replace(l)
		}
	}
	return lines
}

// The Backend methods: what a connection asks of the engine owner, each one
// round trip through the mailbox, whose error is ErrClosed or the handler's
// verdict. They run on connection goroutines and touch no actor-owned state.

func (a *actor) Apply(ups []turboflux.Update) (Ack, error) {
	resp, err := a.box.Call(request{kind: reqApply, ups: ups})
	return Ack{Seq: resp.seq, Total: resp.total, Counts: resp.counts}, err
}

func (a *actor) Register(name, pattern string) error {
	_, err := a.box.Call(request{kind: reqRegister, name: name, arg: pattern})
	return err
}

func (a *actor) Unregister(name string) error {
	_, err := a.box.Call(request{kind: reqUnregister, name: name})
	return err
}

func (a *actor) Queries() ([]string, error) {
	resp, err := a.box.Call(request{kind: reqQueries})
	return resp.names, err
}

func (a *actor) Label(kind, name string) (turboflux.Label, error) {
	resp, err := a.box.Call(request{kind: reqLabel, name: kind, arg: name})
	return resp.label, err
}

func (a *actor) Stats() ([]string, error) {
	resp, err := a.box.Call(request{kind: reqStats})
	return resp.lines, err
}

func (a *actor) ShardStats() ([]string, error) {
	return nil, errors.New("server: SHARDSTATS requires a coordinator (turboflux-shard)")
}

// Subscribe queues the query's events on c's outbox. The subscriber is the
// handle: the connection ends it by closing it, which releases an actor
// blocked on its full queue at once; the actor forgets closed subscribers
// when it next looks at their list (flushBurst, reqSubscribe, STATS) and
// at DropConn.
func (a *actor) Subscribe(c *Conn, name string) (Subscription, uint64, error) {
	sub := newSubscriber(name, c.id, a.depth, c.outbox())
	resp, err := a.box.Call(request{kind: reqSubscribe, name: name, sub: sub})
	if err != nil {
		return nil, 0, err
	}
	return sub, resp.seq, nil
}

func (a *actor) DropConn(id uint64) {
	a.box.Send(request{kind: reqDropConn, connID: id}) //tf:unchecked-ok best-effort after shutdown
}

// Stop ends the mailbox once the connections are gone and returns the
// store-close error. A follower's replication link stops first: it
// applies through the mailbox, which must still be running while the link
// winds down.
func (a *actor) Stop() error {
	a.stopLink()
	a.box.Stop()
	return a.closeErr
}
