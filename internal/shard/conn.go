package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"turboflux"
	"turboflux/internal/server"
)

// The router's server.Backend methods: what a client connection
// (server.Conn) asks of the cluster. They run on connection goroutines; each
// makes one round trip through the router's mailbox and then collects the
// per-shard results itself, keeping the router off the network.

// Apply merges the per-shard acknowledgments of a run into one client ack.
// Queries partition across shards, so the per-query counts of a run of one
// are disjoint and merge by union; the sequence number is the
// coordinator's. A shard that died mid-run is skipped — the run is
// acknowledged as long as one alive shard applied it.
func (r *router) Apply(ups []turboflux.Update) (server.Ack, error) {
	resp, err := r.box.Call(rreq{kind: rApply, ups: ups})
	if err != nil {
		return server.Ack{}, err
	}
	results, err := resp.pend.settle()
	ack := server.Ack{Seq: resp.seq, Counts: make(map[string]int64)}
	for _, res := range results {
		ack.Total += res.ack.Total
		//tf:unordered-ok summing into a map; WriteAck sorts the names
		for name, n := range res.ack.Counts {
			ack.Counts[name] += n
		}
	}
	return ack, err
}

// Register runs the two-stage registration: label sync to every shard,
// then the registration on the owner, rolling the placement back if the
// owner rejects it.
func (r *router) Register(name, pattern string) error {
	resp, err := r.box.Call(rreq{kind: rRegister, name: name, arg: pattern})
	if err != nil {
		return err
	}
	resp.pend.collect() // label sync; failures mark shards down
	if err := resp.reg.collect()[0].err; err != nil {
		r.box.Send(rreq{kind: rUnassign, name: name}) //tf:unchecked-ok rollback is moot once the router stopped
		return err
	}
	return nil
}

func (r *router) Unregister(name string) error {
	resp, err := r.box.Call(rreq{kind: rUnregister, name: name})
	if err != nil {
		return err
	}
	// The placement is gone either way; an exec error just means the owner
	// died and was marked down.
	resp.reg.collect()
	return nil
}

func (r *router) Queries() ([]string, error) {
	resp, err := r.box.Call(rreq{kind: rQueries})
	return resp.names, err
}

func (r *router) Label(kind, name string) (turboflux.Label, error) {
	resp, err := r.box.Call(rreq{kind: rLabel, name: kind, arg: name})
	if err != nil {
		return 0, err
	}
	resp.pend.collect() // sync failures mark the shard down
	return resp.label, nil
}

func (r *router) Stats() ([]string, error) {
	resp, err := r.box.Call(rreq{kind: rStats})
	return resp.lines, err
}

func (r *router) ShardStats() ([]string, error) {
	resp, err := r.box.Call(rreq{kind: rShardStats})
	return resp.lines, err
}

var errNoReplication = errors.New("shard: coordinators do not replicate; connect to the shard servers directly")

func (r *router) Replicate(*server.Conn, uint64) error { return errNoReplication }
func (r *router) Promote() error                       { return errNoReplication }

// Subscriptions are relayed. Each client connection holds at most one
// upstream per shard: a server.Client to that shard carrying every
// subscription the connection has on the shard's queries. Per shard, a
// coordinator connection therefore behaves like one direct connection —
// the shard's order across those queries, its sequence numbers and its
// per-subscriber slow-consumer policy — and upstreams are per client
// connection, so one slow client never stalls another. The upstream's read
// loop hands each run of pushed lines to forward, which scans it once and
// writes it to the client's Wire in one frame, bypassing the connection's
// outbox.

var (
	eventPrefix   = []byte("*EVENT ")
	evictedPrefix = []byte("*EVICTED ")
	newline       = []byte{'\n'}
)

// connRelays is one client connection's upstreams, indexed by shard id.
// Only that connection's reader goroutine touches it: Subscribe, Cancel
// and DropConn all run there.
type connRelays struct {
	ups []*upstream
}

// relaysOf returns c's upstream table, making it at c's first SUBSCRIBE.
func (r *router) relaysOf(c *server.Conn) *connRelays {
	r.relayMu.Lock()
	defer r.relayMu.Unlock()
	cr := r.relays[c.ID()]
	if cr == nil {
		cr = &connRelays{ups: make([]*upstream, len(r.shards))}
		r.relays[c.ID()] = cr
	}
	return cr
}

// DropConn closes the upstreams a gone connection still holds: those
// whose subscriptions all ended on the shard's side, which no Cancel
// closes.
func (r *router) DropConn(id uint64) {
	r.relayMu.Lock()
	cr := r.relays[id]
	delete(r.relays, id)
	r.relayMu.Unlock()
	if cr == nil {
		return
	}
	for _, u := range cr.ups {
		if u != nil {
			u.close()
		}
	}
}

// release hands a subscription's reservation (STATS subs=) back.
func (r *router) release(query string) {
	r.box.Send(rreq{kind: rSubRelease, name: query}) //tf:unchecked-ok reservation dies with the router
}

// upstream is one (client connection, shard) link. Its client's read loop
// runs forward; its own goroutine, run, sends the UNSUBSCRIBEs Cancel
// queues and closes the link.
type upstream struct {
	r    *router
	c    *server.Conn
	h    *shardHandle
	cr   *connRelays
	cli  *server.Client
	wake chan struct{} // capacity 1: unsubscribes queued, or closing

	mu      sync.Mutex
	live    map[string]*relaySub // the subscriptions riding this link
	stale   map[string]*staleSub // unsubscribed queries whose lines may still arrive
	unsubs  []string             // UNSUBSCRIBEs for run to send, in order
	closing bool                 // last Cancel or teardown: run closes the link
	dead    bool                 // the link ended on its own

	// Owned by the read loop (forward).
	kept  []byte   // a filtered run's forwarded lines
	ended []string // queries whose handles a run ended, to release
}

// staleSub is a query the client unsubscribed while others kept the link
// open. Cancel never waits for the shard, so the shard may still push the
// old subscription's lines: before it handles the upstream UNSUBSCRIBE,
// and from its outbox after its reply. forward drops them by sequence
// number; the entry goes once a later update's line shows they are past.
type staleSub struct {
	// bound is a shard sequence number no line of the old subscription
	// exceeds: MaxUint64 while the UNSUBSCRIBE is in flight, then the
	// shard's number for the last update fanned when the reply came.
	// Updates fanned later reach the shard after it closed the
	// subscription.
	bound uint64
	done  chan struct{} // closed when the reply comes (or the link dies)

	// The shard may have evicted the old subscription itself, before the
	// UNSUBSCRIBE: its *EVICTED is the old stream's and is dropped too.
	sawNotice bool // one came while the UNSUBSCRIBE was in flight
	notice    bool // one is still to come (the UNSUBSCRIBE failed)
}

// relaySub is the connection's handle on one relayed subscription.
type relaySub struct {
	u         *upstream
	query     string
	confirmed bool // under u.mu: the shard answered the SUBSCRIBE
	ended     atomic.Bool
}

// Finished reports that the shard evicted the subscription or its link
// died.
func (s *relaySub) Finished() bool { return s.ended.Load() }

// Cancel ends the subscription without waiting for the shard: the last
// one on a link closes it; otherwise the link's goroutine sends the
// UNSUBSCRIBE, and the query's lines are dropped from here on.
func (s *relaySub) Cancel() {
	u := s.u
	u.mu.Lock()
	if u.live[s.query] != s { // ended by the shard or the link's death, and released then
		u.mu.Unlock()
		return
	}
	delete(u.live, s.query)
	last := len(u.live) == 0
	if !last {
		st := u.stale[s.query]
		if st == nil {
			st = &staleSub{}
			u.stale[s.query] = st
		}
		st.bound, st.done, st.sawNotice = math.MaxUint64, make(chan struct{}), false
		u.unsubs = append(u.unsubs, s.query)
	}
	u.mu.Unlock()
	if last {
		u.retire()
	} else {
		u.kick()
	}
	u.r.release(s.query)
}

// Subscribe relays the subscription over the connection's upstream to the
// owning shard, dialing it at the connection's first SUBSCRIBE there.
func (r *router) Subscribe(c *server.Conn, name string) (server.Subscription, uint64, error) {
	resp, err := r.box.Call(rreq{kind: rSubscribe, name: name})
	if err != nil {
		return nil, 0, err
	}
	h := r.shards[resp.shard]
	cr := r.relaysOf(c)
	u := cr.ups[h.id]
	if u != nil && u.isDead() {
		u = nil // its goroutine has evicted what rode it and ended
	}
	if u == nil {
		u, err = r.dialUpstream(c, h, resp.addr, cr)
	} else {
		err = u.settle(name)
	}
	if err != nil {
		r.release(name)
		return nil, 0, err
	}
	sub := &relaySub{u: u, query: name}
	// Live before the request: the shard may push the first lines ahead of
	// its reply.
	u.mu.Lock()
	u.live[name] = sub
	u.mu.Unlock()
	seq, err := u.cli.Subscribe(name)
	u.mu.Lock()
	held := u.live[name] == sub
	switch {
	case err != nil && held:
		delete(u.live, name)
	case err == nil && held:
		sub.confirmed = true
	case err == nil && u.dead:
		err = fmt.Errorf("shard: lost the connection to shard %d (%s)", h.id, h.addr)
	}
	empty := len(u.live) == 0
	u.mu.Unlock()
	if err != nil {
		if held {
			r.release(name)
		}
		if empty {
			u.retire()
		}
		return nil, 0, err
	}
	return sub, seq, nil
}

// dialUpstream opens c's link to shard h and starts its goroutine.
func (r *router) dialUpstream(c *server.Conn, h *shardHandle, addr string, cr *connRelays) (*upstream, error) {
	u := &upstream{
		r:     r,
		c:     c,
		h:     h,
		cr:    cr,
		wake:  make(chan struct{}, 1),
		live:  make(map[string]*relaySub),
		stale: make(map[string]*staleSub),
	}
	cli, err := server.DialWith(addr, server.DialOptions{
		Timeout:        r.dialTimeout,
		RequestTimeout: r.requestTimeout,
		OnPush:         u.forward,
	})
	if err != nil {
		return nil, fmt.Errorf("shard: dialing shard %d (%s): %w", h.id, addr, err)
	}
	u.cli = cli
	cr.ups[h.id] = u
	c.Go(u.run)
	return u, nil
}

// settle readies the link for a new SUBSCRIBE of a query the client
// unsubscribed on it: it waits for the UNSUBSCRIBE's reply, then until the
// shard has applied every update fanned by then, so the new subscription
// starts past the stale bound and forward cannot mistake its lines for
// the old one's.
func (u *upstream) settle(name string) error {
	u.mu.Lock()
	st := u.stale[name]
	var done chan struct{}
	if st != nil {
		done = st.done
	}
	u.mu.Unlock()
	if st == nil {
		return nil
	}
	if done != nil {
		<-done
	}
	resp, err := u.r.box.Call(rreq{kind: rBarrier, shard: u.h.id})
	if err != nil {
		return err
	}
	return resp.reg.collect()[0].err
}

func (u *upstream) isDead() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.dead
}

// kick wakes run without blocking.
func (u *upstream) kick() {
	select {
	case u.wake <- struct{}{}:
	default:
	}
}

// close makes run close the link.
func (u *upstream) close() {
	u.mu.Lock()
	u.closing = true
	u.mu.Unlock()
	u.kick()
}

// retire closes the link and forgets it, so the connection's next
// SUBSCRIBE to the shard dials anew (reader goroutine only).
func (u *upstream) retire() {
	u.close()
	if u.cr.ups[u.h.id] == u {
		u.cr.ups[u.h.id] = nil
	}
}

// run is the link's goroutine, started with Conn.Go so teardown waits for
// it. It sends the queued UNSUBSCRIBEs one at a time and closes the link
// once it is closing; if the link ends on its own (the shard died), every
// subscription riding it gets one *EVICTED.
func (u *upstream) run() {
	defer u.cli.Close() //tf:unchecked-ok closing the link
	for {
		select {
		case <-u.wake:
		case <-u.cli.Events(): // carries nothing under OnPush; closes with the connection
			u.died()
			return
		}
		for {
			u.mu.Lock()
			if u.closing {
				u.mu.Unlock()
				return
			}
			if len(u.unsubs) == 0 {
				u.mu.Unlock()
				break
			}
			q := u.unsubs[0]
			u.unsubs = u.unsubs[1:]
			u.mu.Unlock()
			u.unsubscribed(q, u.cli.Unsubscribe(q))
		}
	}
}

// unsubscribed settles q's stale bound once the shard has answered its
// UNSUBSCRIBE. An error means the shard had already ended the old
// subscription — its *EVICTED is on the way unless it came already — or
// that the link is dying, which run notices next.
func (u *upstream) unsubscribed(q string, err error) {
	bound := u.h.base + u.r.fanned.Load()
	u.mu.Lock()
	defer u.mu.Unlock()
	st := u.stale[q]
	if st == nil || st.done == nil {
		return
	}
	st.bound = bound
	st.notice = st.notice || (err != nil && !st.sawNotice)
	close(st.done)
	st.done = nil
}

// died evicts every confirmed subscription on a link that ended on its
// own, exactly once each, unless the link was closing anyway.
func (u *upstream) died() {
	u.mu.Lock()
	if u.closing {
		u.mu.Unlock()
		return
	}
	u.dead = true
	var gone, notify []string
	//tf:unordered-ok each subscription's notice is its own stream's last line
	for name, s := range u.live {
		s.ended.Store(true)
		delete(u.live, name)
		gone = append(gone, name)
		if s.confirmed {
			notify = append(notify, name)
		}
	}
	//tf:unordered-ok releasing waiters
	for _, st := range u.stale {
		if st.done != nil {
			close(st.done)
			st.done = nil
		}
	}
	u.mu.Unlock()
	for _, q := range notify {
		u.c.WriteLine("*EVICTED " + q) //tf:unchecked-ok peer may be gone
	}
	for _, q := range gone {
		u.r.release(q)
	}
}

// forward is the link's push callback, on its client's read loop: it
// scans the run once — counting *EVENT lines for STATS, ending the handle
// of a query the shard evicted before the notice goes out, and, while an
// unsubscribed query's lines may still arrive, dropping them — and writes
// what is left to the client's Wire in one frame, flushing once the
// link's read buffer is drained.
//
//tf:hotpath
func (u *upstream) forward(run []byte, more bool) {
	u.mu.Lock()
	var events uint64
	if len(u.stale) == 0 {
		events = u.scan(run)
	} else {
		run, events = u.filter(run)
	}
	u.mu.Unlock()
	u.r.events.Add(events)
	u.c.WriteFrame(run, nil, !more) //tf:unchecked-ok sticky error; the link keeps draining
	for _, q := range u.ended {
		u.r.release(q)
	}
	u.ended = u.ended[:0]
}

// scan is forward's pass over a run with nothing to drop (u.mu held). A
// shard pushes only *EVENT and *EVICTED lines, and an event line holds no
// 'D' unless its query's name does: a run without one is only counted.
func (u *upstream) scan(run []byte) (events uint64) {
	if bytes.IndexByte(run, 'D') < 0 {
		return uint64(bytes.Count(run, newline))
	}
	for off := 0; off < len(run); {
		n := bytes.IndexByte(run[off:], '\n') + 1
		line := run[off : off+n]
		off += n
		if bytes.HasPrefix(line, eventPrefix) {
			events++
		} else if bytes.HasPrefix(line, evictedPrefix) {
			u.evicted(pushQuery(line, len(evictedPrefix)))
		}
	}
	return events
}

// filter is forward's pass while stale queries exist (u.mu held): it
// copies the lines to forward into u.kept.
func (u *upstream) filter(run []byte) (kept []byte, events uint64) {
	kept = u.kept[:0]
	for off := 0; off < len(run); {
		n := bytes.IndexByte(run[off:], '\n') + 1
		line := run[off : off+n]
		off += n
		switch {
		case bytes.HasPrefix(line, eventPrefix):
			name := pushQuery(line, len(eventPrefix))
			seq := eventSeq(line[len(eventPrefix)+len(name):])
			if st := u.stale[string(name)]; st != nil && seq <= st.bound {
				continue // the unsubscribed stream
			}
			events++
			u.sweep(seq)
		case bytes.HasPrefix(line, evictedPrefix):
			name := pushQuery(line, len(evictedPrefix))
			st := u.stale[string(name)]
			if st != nil && (u.live[string(name)] == nil || st.notice) {
				// The old subscription's end.
				if st.done != nil {
					st.sawNotice = true
				} else {
					st.notice = false
				}
				continue
			}
			u.evicted(name)
		}
		kept = append(kept, line...)
	}
	u.kept = kept
	return kept, events
}

// sweep drops the stale entries a line of update seq shows are past: the
// shard pushed it after closing their subscriptions, and a connection's
// pushes leave the shard in order (u.mu held).
func (u *upstream) sweep(seq uint64) {
	//tf:unordered-ok deleting settled entries
	for name, st := range u.stale {
		if st.bound < seq {
			delete(u.stale, name)
		}
	}
}

// evicted ends the handle of a query the shard evicted (u.mu held). The
// handle reads Finished before forward writes the notice.
func (u *upstream) evicted(name []byte) {
	s := u.live[string(name)]
	if s == nil {
		return
	}
	s.ended.Store(true)
	delete(u.live, s.query)
	u.ended = append(u.ended, s.query)
}

// pushQuery returns the query name of a push line whose prefix is skip
// bytes long.
func pushQuery(line []byte, skip int) []byte {
	rest := line[skip:]
	if i := bytes.IndexAny(rest, " \r\n"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// eventSeq parses the sequence number at the start of rest (" <seq> ...").
func eventSeq(rest []byte) uint64 {
	var seq uint64
	for _, b := range bytes.TrimLeft(rest, " ") {
		if b < '0' || b > '9' {
			break
		}
		seq = seq*10 + uint64(b-'0')
	}
	return seq
}
