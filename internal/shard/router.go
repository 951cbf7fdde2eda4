package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"turboflux"
	"turboflux/internal/qlang"
	"turboflux/internal/server"
)

type rkind uint8

const (
	rApply rkind = iota
	rRegister
	rUnregister
	rUnassign // roll an optimistic placement back after a failed register
	rQueries
	rLabel
	rSubscribe
	rStats
	rShardStats
)

// rreq is one message to the router actor.
type rreq struct {
	kind rkind
	ups  []turboflux.Update // the run to fan (rApply)
	name string             // query name / "vertex" / "edge" (rLabel)
	arg  string             // pattern (rRegister) / label name (rLabel)
}

type rresp struct {
	seq   uint64  // coordinator sequence of the run's first update
	pend  pending // all-shard fan-out barrier (updates, label sync)
	reg   pending // owner-shard barrier (register/unregister)
	names []string
	lines []string
	label turboflux.Label
	shard int    // owner shard id (rSubscribe)
	addr  string // owner shard address (rSubscribe)
}

// assignTable is the query-placement state: which shard owns each query,
// per-shard load, and registration order. It belongs to the router
// goroutine alone — connection goroutines reach it only through the
// mailbox.
//
//tf:actor-owned
type assignTable struct {
	byName map[string]int // owner shard id by query name
	order  []string
	counts []int // registered queries per shard id
}

func newAssignTable(shards int) *assignTable {
	return &assignTable{
		byName: make(map[string]int),
		counts: make([]int, shards),
	}
}

func (t *assignTable) get(name string) (int, bool) {
	shard, ok := t.byName[name]
	return shard, ok
}

func (t *assignTable) add(name string, shard int) {
	t.byName[name] = shard
	t.order = append(t.order, name)
	t.counts[shard]++
}

// remove drops a query, rebalancing the owner's load count so the next
// registration prefers the now-lighter shard.
func (t *assignTable) remove(name string) {
	shard, ok := t.byName[name]
	if !ok {
		return
	}
	delete(t.byName, name)
	t.counts[shard]--
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

	// Off the router loop: read by STATS and the relays, and written by
	// every relay — kept behind the fields each request touches.
	front          *server.Front // the front end serving this router (STATS conns=)
	dialTimeout    time.Duration // bounds the connect of a relay's upstream
	requestTimeout time.Duration // bounds a relay's SUBSCRIBE and UNSUBSCRIBE
	events         atomic.Uint64 // relayed match events (STATS)

	relayMu sync.Mutex
	relays  map[uint64][]*upstream // by connection id, then shard id
}

func newRouter(shards []*shardHandle, vdict, edict *turboflux.Dict, opt Options) *router {
	return &router{
		shards:         shards,
		vdict:          vdict,
		edict:          edict,
		dialTimeout:    opt.DialTimeout,
		requestTimeout: opt.RequestTimeout,
		table:          newAssignTable(len(shards)),
		relays:         make(map[uint64][]*upstream),
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
		resp.seq = r.seq + 1
		r.seq += uint64(len(req.ups))
		resp.pend = r.fanAll(&task{kind: taskApply, seq: resp.seq, ups: req.ups})
	case rRegister:
		return r.register(req)
	case rUnassign:
		r.table.remove(req.name)
	case rUnregister:
		owner, ok := r.table.get(req.name)
		if !ok {
			return resp, fmt.Errorf("shard: query %q is not registered", req.name)
		}
		r.table.remove(req.name)
		resp.reg = r.fanTo(owner, &task{kind: taskUnregister, name: req.name})
	case rQueries:
		resp.names = r.table.names()
	case rLabel:
		return r.label(req)
	case rSubscribe:
		owner, ok := r.table.get(req.name)
		if !ok {
			return resp, fmt.Errorf("shard: query %q is not registered", req.name)
		}
		h := r.shards[owner]
		if !h.alive.Load() {
			return resp, fmt.Errorf("shard: query %q lives on shard %d (%s), which is down: %s",
				req.name, h.id, h.addr, h.downReason())
		}
		resp.shard, resp.addr = h.id, h.addr
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
// syncs it to every shard. A new name qlang.CheckLabel refuses interns
// nothing.
func (r *router) label(req rreq) (rresp, error) {
	var resp rresp
	d := r.vdict
	if req.name == "edge" {
		d = r.edict
	}
	if id, ok := d.Lookup(req.arg); ok {
		resp.label = id // already cluster-wide; nothing to sync
		return resp, nil
	}
	if err := qlang.CheckLabel(req.arg, d); err != nil {
		return resp, err
	}
	id := d.Intern(req.arg)
	resp.label = id
	resp.pend = r.fanAll(&task{kind: taskLabels, labels: []labelDef{{kind: req.name, name: req.arg, want: id}}})
	return resp, nil
}

// internPattern parses the pattern through the coordinator's
// dictionaries and returns the newly interned labels, in id order, for
// syncing to the shards. A decimal label a numeric dictionary does not
// hold, or more new labels than a dictionary has room for, is refused
// before anything is interned (qlang.CheckLabels).
func (r *router) internPattern(pattern string) ([]labelDef, error) {
	if err := qlang.CheckLabels(pattern, r.vdict, r.edict); err != nil {
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
	return pending{n: n, res: t.res}
}

// fanTo enqueues one task to a single shard's FIFO.
func (r *router) fanTo(shard int, t *task) pending {
	t.res = make(chan taskResult, 1)
	r.shards[shard].tasks <- t
	return pending{n: 1, res: t.res}
}

// statsLines renders the coordinator STATS payload: the cluster line, one
// line per shard, then one line per query in registration order. It holds
// only what the coordinator alone knows — the total order, the placement
// and the relays; every per-query and sharing counter is in the owning
// shard's own STATS.
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
	lines = r.shardLines(lines)
	for _, name := range r.table.order {
		lines = append(lines, fmt.Sprintf("query %s shard=%d", name, r.table.byName[name]))
	}
	return lines
}

// shardLines renders the per-shard liveness and lag lines (the
// SHARDSTATS payload, also embedded in STATS).
func (r *router) shardLines(lines []string) []string {
	for _, h := range r.shards {
		applied := h.applied.Load()
		lines = append(lines, fmt.Sprintf(
			"shard %d addr=%s alive=%t queries=%d seq=%d lag=%d ping_us=%d misses=%d",
			h.id, h.addr, h.alive.Load(), r.table.counts[h.id],
			h.base+applied, r.seq-applied, h.pingUs.Load(), h.misses.Load()))
	}
	return lines
}
