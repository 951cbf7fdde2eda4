package shard

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"turboflux"
	"turboflux/internal/qlang"
	"turboflux/internal/server"
)

type rkind uint8

const (
	rApply rkind = iota
	rBatch
	rRegister
	rUnregister
	rUnassign // roll an optimistic placement back after a failed register
	rQueries
	rLabel
	rSubscribe
	rSubRelease
	rStats
	rShardStats
)

// rreq is one message to the router actor.
type rreq struct {
	kind rkind
	u    turboflux.Update
	ups  []turboflux.Update
	name string // query name / "vertex" / "edge" (rLabel)
	arg  string // pattern (rRegister) / label name (rLabel)
}

type rresp struct {
	seq   uint64  // coordinator sequence of the (first) update
	pend  pending // all-shard fan-out barrier (updates, label sync)
	reg   pending // owner-shard barrier (register/unregister)
	names []string
	lines []string
	label turboflux.Label
	addr  string // owner shard address (rSubscribe)
}

// assignTable is the query-placement state: which shard owns each query,
// per-shard load, and registration order. It belongs to the router
// goroutine alone — connection goroutines reach it only through the
// mailbox.
//
//tf:actor-owned
type assignTable struct {
	byName map[string]*assignment
	order  []string
	counts []int // registered queries per shard id
}

type assignment struct {
	shard int
	subs  int // live coordinator-side subscriptions (STATS)
}

func newAssignTable(shards int) *assignTable {
	return &assignTable{
		byName: make(map[string]*assignment),
		counts: make([]int, shards),
	}
}

func (t *assignTable) get(name string) (*assignment, bool) {
	a, ok := t.byName[name]
	return a, ok
}

func (t *assignTable) add(name string, shard int) {
	t.byName[name] = &assignment{shard: shard}
	t.order = append(t.order, name)
	t.counts[shard]++
}

// remove drops a query, rebalancing the owner's load count so the next
// registration prefers the now-lighter shard.
func (t *assignTable) remove(name string) {
	a, ok := t.byName[name]
	if !ok {
		return
	}
	delete(t.byName, name)
	t.counts[a.shard]--
	for i, n := range t.order {
		if n == name {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// names returns the registered query names in registration order.
func (t *assignTable) names() []string {
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}

// router is the coordinator's actor: it owns the placement table, the
// coordinator sequence counter and the fanner enqueue order (the
// cluster's total update order). It never performs network I/O — fanner
// goroutines do, and connection goroutines collect their results — so a
// slow or hung shard cannot stall routing.
type router struct {
	shards []*shardHandle
	vdict  *turboflux.Dict
	edict  *turboflux.Dict

	box server.Mailbox[rreq, rresp] // runs handle and shutdown

	table *assignTable
	seq   uint64 // updates fanned so far; acked to clients

	// Off the router loop: read by STATS and Subscribe, and events written
	// by every relay — kept behind the fields each request touches.
	front       *server.Front // the front end serving this router (STATS conns=)
	dialTimeout time.Duration // bounds the connect of a delegated subscription
	events      atomic.Uint64 // relayed match events (STATS)
}

func newRouter(shards []*shardHandle, vdict, edict *turboflux.Dict, dialTimeout time.Duration) *router {
	return &router{
		shards:      shards,
		vdict:       vdict,
		edict:       edict,
		dialTimeout: dialTimeout,
		table:       newAssignTable(len(shards)),
	}
}

// shutdown runs on the mailbox once the requests already queued are
// handled: it closes the task FIFOs so the fanners finish their backlogs
// and exit, stops the heartbeats, and releases the shard clients.
//
//tf:actor-loop
func (r *router) shutdown() {
	for _, h := range r.shards {
		close(h.tasks)
		close(h.stop)
	}
	for _, h := range r.shards {
		h.wg.Wait()
		h.closeClients()
	}
}

// Stop (server.Backend) ends the mailbox once the connections are gone
// and waits for shutdown to finish.
func (r *router) Stop() error {
	r.box.Stop()
	return nil
}

// handle is the mailbox's handler: the confinement root, with shutdown,
// every placement-table access must be reachable from.
//
//tf:actor-loop
func (r *router) handle(req rreq) (resp rresp, err error) {
	switch req.kind {
	case rApply:
		r.seq++
		resp.seq = r.seq
		resp.pend = r.fanAll(&task{kind: taskApply, seq: r.seq, u: req.u})
	case rBatch:
		first := r.seq + 1
		r.seq += uint64(len(req.ups))
		resp.seq = first
		resp.pend = r.fanAll(&task{kind: taskBatch, seq: first, ups: req.ups})
	case rRegister:
		return r.register(req)
	case rUnassign:
		r.table.remove(req.name)
	case rUnregister:
		a, ok := r.table.get(req.name)
		if !ok {
			return resp, fmt.Errorf("shard: query %q is not registered", req.name)
		}
		r.table.remove(req.name)
		resp.reg = r.fanTo(a.shard, &task{kind: taskUnregister, name: req.name})
	case rQueries:
		resp.names = r.table.names()
	case rLabel:
		resp = r.label(req)
	case rSubscribe:
		a, ok := r.table.get(req.name)
		if !ok {
			return resp, fmt.Errorf("shard: query %q is not registered", req.name)
		}
		h := r.shards[a.shard]
		if !h.alive.Load() {
			return resp, fmt.Errorf("shard: query %q lives on shard %d (%s), which is down: %s",
				req.name, h.id, h.addr, h.downReason())
		}
		a.subs++
		resp.addr = h.addr
	case rSubRelease:
		if a, ok := r.table.get(req.name); ok && a.subs > 0 {
			a.subs--
		}
	case rStats:
		resp.lines = r.statsLines()
	case rShardStats:
		resp.lines = r.shardLines(nil)
	}
	return resp, nil
}

// register validates and interns the pattern locally, places the query
// on the least-loaded alive shard, and enqueues the label sync (all
// shards) and the registration (owner) in FIFO order. The placement is
// recorded optimistically; the connection goroutine rolls it back with
// rUnassign if the owner rejects.
func (r *router) register(req rreq) (resp rresp, err error) {
	if _, dup := r.table.get(req.name); dup {
		return resp, fmt.Errorf("shard: query %q is already registered", req.name)
	}
	labels, err := r.internPattern(req.arg)
	if err != nil {
		return resp, err
	}
	owner, ok := r.leastLoaded()
	if !ok {
		return resp, errors.New("shard: no alive shards")
	}
	if len(labels) > 0 {
		resp.pend = r.fanAll(&task{kind: taskLabels, labels: labels})
	}
	resp.reg = r.fanTo(owner, &task{kind: taskRegister, name: req.name, pattern: req.arg})
	r.table.add(req.name, owner)
	return resp, nil
}

// label interns one client-requested label locally and, when it is new,
// syncs it to every shard.
func (r *router) label(req rreq) rresp {
	var resp rresp
	d := r.vdict
	if req.name == "edge" {
		d = r.edict
	}
	if id, ok := d.Lookup(req.arg); ok {
		resp.label = id // already cluster-wide; nothing to sync
		return resp
	}
	id := d.Intern(req.arg)
	resp.label = id
	resp.pend = r.fanAll(&task{kind: taskLabels, labels: []labelDef{{kind: req.name, name: req.arg, want: id}}})
	return resp
}

// internPattern parses the pattern through the coordinator's
// dictionaries and returns the newly interned labels, in id order, for
// syncing to the shards. A decimal label a numeric dictionary does not
// hold is refused before anything is interned.
func (r *router) internPattern(pattern string) ([]labelDef, error) {
	if err := qlang.CheckNumeric(pattern, r.vdict, r.edict); err != nil {
		return nil, err
	}
	v0, e0 := r.vdict.Len(), r.edict.Len()
	if _, _, err := qlang.Parse(pattern, r.vdict, r.edict); err != nil {
		return nil, err
	}
	var defs []labelDef
	for i := v0; i < r.vdict.Len(); i++ {
		l := turboflux.Label(i)
		defs = append(defs, labelDef{kind: "vertex", name: r.vdict.Name(l), want: l})
	}
	for i := e0; i < r.edict.Len(); i++ {
		l := turboflux.Label(i)
		defs = append(defs, labelDef{kind: "edge", name: r.edict.Name(l), want: l})
	}
	return defs, nil
}

// leastLoaded picks the alive shard owning the fewest queries (lowest
// id breaks ties).
func (r *router) leastLoaded() (int, bool) {
	best, found := -1, false
	for _, h := range r.shards {
		if !h.alive.Load() {
			continue
		}
		if !found || r.table.counts[h.id] < r.table.counts[best] {
			best, found = h.id, true
		}
	}
	return best, found
}

// fanAll enqueues one task to every alive shard's FIFO and returns the
// barrier handle. Dead shards are skipped; a shard dying after the
// enqueue still replies (with an error), so collect always terminates.
func (r *router) fanAll(t *task) pending {
	t.res = make(chan taskResult, len(r.shards))
	n := 0
	for _, h := range r.shards {
		if !h.alive.Load() {
			continue
		}
		h.tasks <- t
		n++
	}
	return pending{n: n, seq: t.seq, res: t.res}
}

// fanTo enqueues one task to a single shard's FIFO.
func (r *router) fanTo(shard int, t *task) pending {
	t.res = make(chan taskResult, 1)
	r.shards[shard].tasks <- t
	return pending{n: 1, seq: t.seq, res: t.res}
}

// statsLines renders the coordinator STATS payload: the cluster line,
// the aggregate mqo line (summed over the shards' last-probed sharing
// counters), one line per shard, then one line per query in
// registration order.
func (r *router) statsLines() []string {
	alive := 0
	for _, h := range r.shards {
		if h.alive.Load() {
			alive++
		}
	}
	lines := make([]string, 0, 1+len(r.shards)+len(r.table.order))
	lines = append(lines, fmt.Sprintf(
		"cluster role=coordinator shards=%d alive=%d seq=%d updates=%d events=%d conns=%d",
		len(r.shards), alive, r.seq, r.seq, r.events.Load(), r.front.Conns()))
	var mq struct{ subpats, shared, refs, maintain, saved, replays uint64 }
	for _, h := range r.shards {
		mq.subpats += uint64(h.mqoSubpats.Load())
		mq.shared += uint64(h.mqoShared.Load())
		mq.refs += uint64(h.mqoRefs.Load())
		mq.maintain += h.mqoMaintain.Load()
		mq.saved += h.mqoSaved.Load()
		mq.replays += h.mqoReplays.Load()
	}
	lines = append(lines, fmt.Sprintf(
		"mqo subpats=%d shared=%d refs=%d maintain=%d saved=%d replays=%d",
		mq.subpats, mq.shared, mq.refs, mq.maintain, mq.saved, mq.replays))
	lines = r.shardLines(lines)
	for _, name := range r.table.order {
		a := r.table.byName[name]
		lines = append(lines, fmt.Sprintf("query %s shard=%d subs=%d", name, a.shard, a.subs))
	}
	return lines
}

// shardLines renders the per-shard liveness and lag lines (the
// SHARDSTATS payload, also embedded in STATS).
func (r *router) shardLines(lines []string) []string {
	for _, h := range r.shards {
		applied := h.applied.Load()
		lines = append(lines, fmt.Sprintf(
			"shard %d addr=%s alive=%t queries=%d seq=%d lag=%d ping_us=%d misses=%d subpats=%d refs=%d saved=%d",
			h.id, h.addr, h.alive.Load(), r.table.counts[h.id],
			h.base+applied, r.seq-applied, h.pingUs.Load(), h.misses.Load(),
			h.mqoSubpats.Load(), h.mqoRefs.Load(), h.mqoSaved.Load()))
	}
	return lines
}
