package shard

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"turboflux"
	"turboflux/internal/server"
)

// cconn is one client connection to the coordinator, over the server's
// own connection layer (server.Wire): the reader goroutine owns the read
// side and the subs map; replies and relayed subscription events share
// the socket through the write side, whole lines per critical section.
type cconn struct {
	*server.Wire
	co *Coordinator
	r  *router
	nc net.Conn
	id uint64

	subs   map[string]*relaySub
	relays sync.WaitGroup
}

// relaySub is one delegated subscription: a dedicated client connection
// to the owning shard whose pushed lines are forwarded verbatim.
type relaySub struct {
	c          *cconn
	query      string
	cli        *server.Client
	closedByUs atomic.Bool // set before a deliberate close, so the relay
	// does not report a clean unsubscribe as an eviction
	evicted chan struct{} // closed by forward on the shard's own *EVICTED
	ended   atomic.Bool   // evicted or shard died: the subs entry is stale
}

func newCConn(co *Coordinator, nc net.Conn, id uint64) *cconn {
	return &cconn{
		Wire: server.NewWire(nc),
		co:   co,
		r:    co.router,
		nc:   nc,
		id:   id,
		subs: make(map[string]*relaySub),
	}
}

// serve runs the request loop, then tears the connection down.
func (c *cconn) serve() {
	defer c.teardown()
	c.Serve(c.dispatch)
}

// dispatch executes one parsed request. It returns false when the
// connection should close.
func (c *cconn) dispatch(req server.Request) bool {
	switch req.Kind {
	case server.KindPing:
		return c.WriteLine("+OK pong") == nil
	case server.KindQuit:
		c.WriteLine("+OK bye") //tf:unchecked-ok closing anyway
		return false
	case server.KindUpdate:
		resp, err := c.r.call(rreq{kind: rApply, u: req.Update})
		if err != nil {
			return false
		}
		return c.writeApplyReply(resp.seq, resp.pend.collect()) == nil
	case server.KindBatch, server.KindBatchBin:
		ups, ferr, perr := c.ReadBatch(req)
		if ferr != nil {
			return false
		}
		if perr != nil {
			return c.WriteErr(perr) == nil
		}
		return c.finishBatch(ups)
	case server.KindRegister:
		return c.register(req.Name, req.Arg)
	case server.KindUnregister:
		resp, err := c.r.call(rreq{kind: rUnregister, name: req.Name})
		if err != nil {
			return false
		}
		if resp.err != nil {
			return c.WriteErr(resp.err) == nil
		}
		// The placement is gone either way; an exec error just means the
		// owner died and was marked down.
		resp.reg.collect()
		return c.WriteLine("+OK") == nil
	case server.KindQueries:
		resp, err := c.r.call(rreq{kind: rQueries})
		if err != nil {
			return false
		}
		return c.WriteNames(resp.names) == nil
	case server.KindLabel:
		resp, err := c.r.call(rreq{kind: rLabel, name: req.Name, arg: req.Arg})
		if err != nil {
			return false
		}
		if resp.err != nil {
			return c.WriteErr(resp.err) == nil
		}
		resp.pend.collect() // sync failures mark the shard down
		return c.WriteLine(fmt.Sprintf("+OK %d", resp.label)) == nil
	case server.KindSubscribe:
		return c.subscribe(req.Name)
	case server.KindUnsubscribe:
		return c.unsubscribe(req.Name)
	case server.KindStats:
		return c.writeData(rStats)
	case server.KindShardStats:
		return c.writeData(rShardStats)
	case server.KindReplicate, server.KindPromote:
		return c.WriteErr(errors.New("shard: coordinators do not replicate; connect to the shard servers directly")) == nil
	default:
		return c.WriteErr(fmt.Errorf("shard: unhandled request kind %d", req.Kind)) == nil
	}
}

// writeData performs one router exchange whose payload uses the
// "+DATA <n>" framing (STATS, SHARDSTATS).
func (c *cconn) writeData(kind rkind) bool {
	resp, err := c.r.call(rreq{kind: kind})
	return err == nil && c.WriteData(resp.lines) == nil
}

func (c *cconn) finishBatch(ups []turboflux.Update) bool {
	resp, err := c.r.call(rreq{kind: rBatch, ups: ups})
	if err != nil {
		return false
	}
	results := resp.pend.collect()
	var total int64
	okCount := 0
	var firstErr error
	for _, res := range results {
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		okCount++
		total += res.batch.Total
	}
	if okCount == 0 {
		if firstErr == nil {
			firstErr = errors.New("shard: no alive shards")
		}
		return c.WriteErr(firstErr) == nil
	}
	return c.WriteLine(fmt.Sprintf("+OK %d %d %d", resp.seq, len(ups), total)) == nil
}

// writeApplyReply merges the per-shard update acknowledgments into one
// client ack. Queries partition across shards, so the per-query counts
// are disjoint and merge by union; the sequence number is the
// coordinator's. A shard that died mid-update is skipped — the update
// is acknowledged as long as one alive shard applied it.
func (c *cconn) writeApplyReply(seq uint64, results []taskResult) error {
	counts := make(map[string]int64)
	var total int64
	okCount := 0
	var firstErr error
	for _, res := range results {
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		okCount++
		total += res.ack.Total
		//tf:unordered-ok summing into a map; WriteAck sorts the names
		for name, n := range res.ack.Counts {
			counts[name] += n
		}
	}
	if okCount == 0 {
		if firstErr == nil {
			firstErr = errors.New("shard: no alive shards")
		}
		return c.WriteErr(firstErr)
	}
	return c.WriteAck(seq, total, counts)
}

// register runs the two-stage registration: label sync to every shard,
// then the registration on the owner, rolling the placement back if the
// owner rejects it.
func (c *cconn) register(name, pattern string) bool {
	resp, err := c.r.call(rreq{kind: rRegister, name: name, arg: pattern})
	if err != nil {
		return false
	}
	if resp.err != nil {
		return c.WriteErr(resp.err) == nil
	}
	resp.pend.collect() // label sync; failures mark shards down
	reg := resp.reg.collect()[0]
	if reg.err != nil {
		c.r.send(rreq{kind: rUnassign, name: name}) //tf:unchecked-ok rollback is moot once the router stopped
		return c.WriteErr(reg.err) == nil
	}
	return c.WriteLine("+OK") == nil
}

// subscribe opens the delegated subscription: a dedicated client to the
// owning shard whose read loop forwards the pushes, watched by one relay
// goroutine for the life of the subscription. An entry whose relay ended
// (eviction, shard death) counts as absent, as on a plain server.
func (c *cconn) subscribe(name string) bool {
	if old := c.subs[name]; old != nil {
		if !old.ended.Load() {
			return c.WriteErr(fmt.Errorf("shard: already subscribed to %q", name)) == nil
		}
		old.cli.Close() //tf:unchecked-ok dropping a finished subscription's connection
		delete(c.subs, name)
	}
	resp, err := c.r.call(rreq{kind: rSubscribe, name: name})
	if err != nil {
		return false
	}
	if resp.err != nil {
		return c.WriteErr(resp.err) == nil
	}
	sub := &relaySub{c: c, query: name, evicted: make(chan struct{})}
	cli, err := server.DialWith(resp.addr, server.DialOptions{Timeout: c.co.opt.DialTimeout, OnPush: sub.forward})
	if err != nil {
		c.r.send(rreq{kind: rSubRelease, name: name}) //tf:unchecked-ok reservation dies with the router
		return c.WriteErr(fmt.Errorf("shard: dialing shard for %q: %w", name, err)) == nil
	}
	seq, err := cli.Subscribe(name)
	if err != nil {
		cli.Close()                                   //tf:unchecked-ok abandoning a failed subscription
		c.r.send(rreq{kind: rSubRelease, name: name}) //tf:unchecked-ok reservation dies with the router
		return c.WriteErr(err) == nil
	}
	sub.cli = cli
	c.subs[name] = sub
	c.relays.Add(1)
	//tf:goroutine sub-relay
	go c.relay(sub)
	return c.WriteLine(fmt.Sprintf("+OK %d", seq)) == nil
}

func (c *cconn) unsubscribe(name string) bool {
	sub := c.subs[name]
	delete(c.subs, name)
	if sub != nil {
		sub.closedByUs.Store(true)
		sub.cli.Close() //tf:unchecked-ok closing a delegated subscription
	}
	if sub == nil || sub.ended.Load() {
		return c.WriteErr(fmt.Errorf("shard: not subscribed to %q", name)) == nil
	}
	return c.WriteLine("+OK") == nil
}

// forward is the delegated connection's push callback: it runs on that
// client's read loop and copies each pushed line to the client socket as
// it came — the shard's order and sequence numbers are the cluster's —
// flushing once the shard connection's read buffer is drained. The
// shard's own *EVICTED ends the relay; the entry is marked stale before
// the notice goes out, so the client may subscribe again at once.
func (s *relaySub) forward(line []byte, more bool) {
	if bytes.HasPrefix(line, []byte("*EVENT ")) {
		s.c.co.events.Add(1)
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
func (c *cconn) relay(sub *relaySub) {
	defer c.relays.Done()
	defer c.r.send(rreq{kind: rSubRelease, name: sub.query}) //tf:unchecked-ok reservation dies with the router
	select {
	case <-sub.evicted:
		return
	case <-sub.cli.Events(): // carries nothing under OnPush; closes with the connection
	}
	if !sub.closedByUs.Load() && !sub.ended.Swap(true) {
		c.WriteLine("*EVICTED " + sub.query) //tf:unchecked-ok peer may be gone
	}
}

// teardown ends the connection: close every delegated subscription
// (their relays exit), flush, close the socket.
func (c *cconn) teardown() {
	//tf:unordered-ok closing delegated subscriptions; order does not matter
	for _, sub := range c.subs {
		sub.closedByUs.Store(true)
		sub.cli.Close() //tf:unchecked-ok closing
	}
	c.relays.Wait()
	c.WriteFrame(nil, nil, true) //tf:unchecked-ok closing
	c.nc.Close()                 //tf:unchecked-ok closing
	c.co.removeConn(c)
}
