package shard

import (
	"bytes"
	"errors"
	"fmt"
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

// relaysOf returns c's upstreams, indexed by shard id, making the table at
// c's first SUBSCRIBE. Only that connection's reader goroutine touches the
// table's entries: Subscribe, Cancel and DropConn all run there.
func (r *router) relaysOf(c *server.Conn) []*upstream {
	r.relayMu.Lock()
	defer r.relayMu.Unlock()
	ups := r.relays[c.ID()]
	if ups == nil {
		ups = make([]*upstream, len(r.shards))
		r.relays[c.ID()] = ups
	}
	return ups
}

// DropConn closes the upstreams a gone connection still holds: those
// whose subscriptions all ended on the shard's side, which no Cancel
// closes.
func (r *router) DropConn(id uint64) {
	r.relayMu.Lock()
	ups := r.relays[id]
	delete(r.relays, id)
	r.relayMu.Unlock()
	for _, u := range ups {
		if u != nil {
			u.close()
		}
	}
}

// upstream is one (client connection, shard) link. Its client's read loop
// runs forward; its own goroutine, run, sends the UNSUBSCRIBEs Cancel
// queues and closes the link.
type upstream struct {
	r    *router
	c    *server.Conn
	h    *shardHandle
	ups  []*upstream // the connection's table (relaysOf), which retire edits
	cli  *server.Client
	wake chan struct{} // capacity 1: unsubscribes queued, or closing

	mu      sync.Mutex
	live    map[string]*relaySub     // the subscriptions riding this link
	pending map[string]chan struct{} // queries whose UNSUBSCRIBE awaits the shard's reply; closed at it
	unsubs  []string                 // UNSUBSCRIBEs for run to send, in order
	closing bool                     // last Cancel or teardown: nothing more is forwarded
	dead    bool                     // the link ended on its own

	kept []byte // a filtered run's forwarded lines; owned by the read loop (forward)
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
// UNSUBSCRIBE. Either way no line of the query is forwarded once Cancel
// returns — the shard's reply to the UNSUBSCRIBE follows every line of the
// old stream, and forward drops the query's lines until it comes.
func (s *relaySub) Cancel() {
	u := s.u
	u.mu.Lock()
	if u.live[s.query] != s { // ended by the shard or the link's death
		u.mu.Unlock()
		return
	}
	delete(u.live, s.query)
	last := len(u.live) == 0
	if !last {
		u.pending[s.query] = make(chan struct{})
		u.unsubs = append(u.unsubs, s.query)
	}
	u.mu.Unlock()
	if last {
		u.retire()
	} else {
		u.kick()
	}
}

// Subscribe relays the subscription over the connection's upstream to the
// owning shard, dialing it at the connection's first SUBSCRIBE there.
func (r *router) Subscribe(c *server.Conn, name string) (server.Subscription, uint64, error) {
	resp, err := r.box.Call(rreq{kind: rSubscribe, name: name})
	if err != nil {
		return nil, 0, err
	}
	h := r.shards[resp.shard]
	ups := r.relaysOf(c)
	u := ups[h.id]
	if u != nil && u.isDead() {
		u = nil // its goroutine has evicted what rode it and ended
	}
	if u == nil {
		u, err = r.dialUpstream(c, h, resp.addr, ups)
	} else {
		u.settle(name)
	}
	if err != nil {
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
		if empty {
			u.retire()
		}
		return nil, 0, err
	}
	return sub, seq, nil
}

// dialUpstream opens c's link to shard h and starts its goroutine.
func (r *router) dialUpstream(c *server.Conn, h *shardHandle, addr string, ups []*upstream) (*upstream, error) {
	u := &upstream{
		r:       r,
		c:       c,
		h:       h,
		ups:     ups,
		wake:    make(chan struct{}, 1),
		live:    make(map[string]*relaySub),
		pending: make(map[string]chan struct{}),
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
	ups[h.id] = u
	c.Go(u.run)
	return u, nil
}

// settle readies the link for a new SUBSCRIBE of a query the client
// unsubscribed on it: it waits for the UNSUBSCRIBE's reply, after which no
// line of the old subscription can arrive.
func (u *upstream) settle(name string) {
	u.mu.Lock()
	done := u.pending[name]
	u.mu.Unlock()
	if done != nil {
		<-done
	}
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
	if u.ups[u.h.id] == u {
		u.ups[u.h.id] = nil
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
			u.cli.Unsubscribe(q) //tf:unchecked-ok any reply ends q's old stream
			u.unsubscribed(q)
		}
	}
}

// unsubscribed ends q's pending state at the shard's reply to its
// UNSUBSCRIBE. The reply may be an error — the shard had already evicted
// the old subscription, its *EVICTED ahead of the reply, or the link is
// dying, which run notices next — and ends it all the same.
func (u *upstream) unsubscribed(q string) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if done := u.pending[q]; done != nil {
		close(done)
		delete(u.pending, q)
	}
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
	var notify []string
	//tf:unordered-ok each subscription's notice is its own stream's last line
	for name, s := range u.live {
		s.ended.Store(true)
		delete(u.live, name)
		if s.confirmed {
			notify = append(notify, name)
		}
	}
	//tf:unordered-ok releasing waiters
	for q, done := range u.pending {
		close(done)
		delete(u.pending, q)
	}
	u.mu.Unlock()
	for _, q := range notify {
		u.c.WriteLine("*EVICTED " + q) //tf:unchecked-ok peer may be gone
	}
}

// forward is the link's push callback, on its client's read loop: it
// scans the run once — counting *EVENT lines for STATS, ending the handle
// of a query the shard evicted before the notice goes out, and dropping
// the lines of a query whose UNSUBSCRIBE is pending — and writes what is
// left to the client's Wire in one frame, flushing once the link's read
// buffer is drained. A closing link forwards nothing.
//
// u.mu is held through the write, so the filter's decision and the write
// are one step with respect to Cancel: once Cancel returns, no line of its
// query reaches the Wire. The UNSUBSCRIBE's +OK, written after Cancel,
// waits on the same Wire lock anyway.
//
//tf:hotpath
func (u *upstream) forward(run []byte, more bool) {
	u.mu.Lock()
	var events uint64
	if len(u.pending) == 0 && !u.closing {
		events = u.scan(run)
	} else {
		run, events = u.filter(run)
	}
	u.r.events.Add(events)
	u.c.WriteFrame(run, nil, !more) //tf:unchecked-ok sticky error; the link keeps draining
	u.mu.Unlock()
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

// filter is forward's pass while UNSUBSCRIBEs are pending or the link is
// closing (u.mu held): it copies the lines to forward into u.kept —
// none on a closing link, and none of a pending query, its old
// subscription's *EVICTED included.
func (u *upstream) filter(run []byte) (kept []byte, events uint64) {
	kept = u.kept[:0]
	if u.closing {
		return kept, 0
	}
	for off := 0; off < len(run); {
		n := bytes.IndexByte(run[off:], '\n') + 1
		line := run[off : off+n]
		off += n
		var name []byte
		event := bytes.HasPrefix(line, eventPrefix)
		switch {
		case event:
			name = pushQuery(line, len(eventPrefix))
		case bytes.HasPrefix(line, evictedPrefix):
			name = pushQuery(line, len(evictedPrefix))
		}
		if u.pending[string(name)] != nil {
			continue
		}
		if event {
			events++
		} else if name != nil {
			u.evicted(name)
		}
		kept = append(kept, line...)
	}
	u.kept = kept
	return kept, events
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
