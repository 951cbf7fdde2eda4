package shard

import (
	"bytes"
	"errors"
	"fmt"
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

// DropConn has nothing to release: a connection's relays hand their
// reservations back themselves when its teardown cancels them.
func (r *router) DropConn(uint64) {}

// relaySub is one delegated subscription, the connection's handle on it: a
// dedicated client connection to the owning shard whose pushed lines are
// forwarded verbatim, straight onto the client's Wire — so the shard's
// slow-consumer policy, applied per subscriber, is the only one.
type relaySub struct {
	r          *router
	c          *server.Conn
	query      string
	cli        *server.Client
	closedByUs atomic.Bool // set before a deliberate close, so the relay
	// does not report a clean unsubscribe as an eviction
	evicted chan struct{} // closed by forward on the shard's own *EVICTED
	ended   atomic.Bool   // evicted or shard died
}

func (s *relaySub) Finished() bool { return s.ended.Load() }

// Cancel closes the shard connection; the relay goroutine then exits
// silently and releases the reservation.
func (s *relaySub) Cancel() {
	s.closedByUs.Store(true)
	s.cli.Close() //tf:unchecked-ok closing a delegated subscription
}

// Subscribe opens the delegated subscription: a dedicated client to the
// owning shard whose read loop forwards the pushes, watched by one relay
// goroutine for the life of the subscription.
func (r *router) Subscribe(c *server.Conn, name string) (server.Subscription, uint64, error) {
	resp, err := r.box.Call(rreq{kind: rSubscribe, name: name})
	if err != nil {
		return nil, 0, err
	}
	sub := &relaySub{r: r, c: c, query: name, evicted: make(chan struct{})}
	seq, err := sub.open(resp.addr)
	if err != nil {
		r.box.Send(rreq{kind: rSubRelease, name: name}) //tf:unchecked-ok reservation dies with the router
		return nil, 0, err
	}
	c.Go(sub.relay)
	return sub, seq, nil
}

// open dials the owning shard and subscribes there.
func (s *relaySub) open(addr string) (uint64, error) {
	cli, err := server.DialWith(addr, server.DialOptions{Timeout: s.r.dialTimeout, OnPush: s.forward})
	if err != nil {
		return 0, fmt.Errorf("shard: dialing shard for %q: %w", s.query, err)
	}
	seq, err := cli.Subscribe(s.query)
	if err != nil {
		cli.Close() //tf:unchecked-ok abandoning a failed subscription
		return 0, err
	}
	s.cli = cli
	return seq, nil
}

// forward is the delegated connection's push callback: it runs on that
// client's read loop and copies each pushed line to the client socket as
// it came — the shard's order and sequence numbers are the cluster's —
// flushing once the shard connection's read buffer is drained. The
// shard's own *EVICTED ends the relay; the handle is marked finished before
// the notice goes out, so the client may subscribe again at once.
func (s *relaySub) forward(line []byte, more bool) {
	if bytes.HasPrefix(line, []byte("*EVENT ")) {
		s.r.events.Add(1)
		s.c.WriteFrame(line, nil, !more) //tf:unchecked-ok sticky error; the shard connection keeps draining
		return
	}
	if bytes.HasPrefix(line, []byte("*EVICTED")) && !s.ended.Swap(true) {
		close(s.evicted)
	}
	s.c.WriteFrame(line, nil, true) //tf:unchecked-ok peer may be gone
}

// relay watches one delegated subscription to its end: the shard's own
// *EVICTED (forwarded already), or the shard connection closing — a clean
// unsubscribe or teardown (silent), or shard death (*EVICTED synthesized,
// since the stream can never resume).
func (s *relaySub) relay() {
	defer s.r.box.Send(rreq{kind: rSubRelease, name: s.query}) //tf:unchecked-ok reservation dies with the router
	select {
	case <-s.evicted:
		return
	case <-s.cli.Events(): // carries nothing under OnPush; closes with the connection
	}
	if !s.closedByUs.Load() && !s.ended.Swap(true) {
		s.c.WriteLine("*EVICTED " + s.query) //tf:unchecked-ok peer may be gone
	}
}
