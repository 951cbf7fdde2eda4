package server

import (
	"fmt"
	"net"
	"sync"

	"turboflux/internal/stream"
)

// conn is one client connection. The reader goroutine (serve) owns the
// Wire's read side, the subs map and out; replies and the writer
// goroutine's push buffers share the socket through the Wire's write side.
type conn struct {
	*Wire
	srv *Server
	a   *actor
	nc  net.Conn
	id  uint64

	subs    map[string]*subscriber // this connection's subscriptions, by query
	out     *outbox                // push stream; made with its writer at the first SUBSCRIBE
	writers sync.WaitGroup         // the outbox writer, or the replication pump
}

func newConn(srv *Server, nc net.Conn, id uint64) *conn {
	return &conn{
		Wire: NewWire(nc),
		srv:  srv,
		a:    srv.actor,
		nc:   nc,
		id:   id,
		subs: make(map[string]*subscriber),
	}
}

// serve runs the request loop, then tears the connection down.
func (c *conn) serve() {
	defer c.teardown()
	c.Serve(c.dispatch)
}

// dispatch executes one parsed request. It returns false when the
// connection should close (QUIT, write failure, or server shutdown).
func (c *conn) dispatch(req Request) bool {
	switch req.Kind {
	case KindPing:
		return c.WriteLine("+OK pong") == nil
	case KindQuit:
		c.WriteLine("+OK bye") //tf:unchecked-ok closing anyway
		return false
	case KindUpdate:
		resp, err := c.a.call(request{kind: reqApply, u: req.Update})
		if err != nil {
			return false
		}
		if resp.err != nil {
			return c.WriteErr(resp.err) == nil
		}
		return c.WriteAck(resp.seq, resp.total, resp.counts) == nil
	case KindBatch, KindBatchBin:
		ups, ferr, perr := c.ReadBatch(req)
		if ferr != nil {
			return false
		}
		if perr != nil {
			return c.WriteErr(perr) == nil
		}
		return c.finishBatch(ups)
	case KindRegister:
		return c.simpleCall(request{kind: reqRegister, name: req.Name, arg: req.Arg})
	case KindUnregister:
		return c.simpleCall(request{kind: reqUnregister, name: req.Name})
	case KindQueries:
		resp, err := c.a.call(request{kind: reqQueries})
		if err != nil {
			return false
		}
		return c.WriteNames(resp.names) == nil
	case KindLabel:
		resp, err := c.a.call(request{kind: reqLabel, name: req.Name, arg: req.Arg})
		if err != nil {
			return false
		}
		return c.WriteLine(fmt.Sprintf("+OK %d", resp.label)) == nil
	case KindSubscribe:
		return c.subscribe(req.Name)
	case KindUnsubscribe:
		return c.unsubscribe(req.Name)
	case KindReplicate:
		return c.replicate(req)
	case KindPromote:
		return c.promote()
	case KindShardStats:
		return c.WriteErr(fmt.Errorf("server: SHARDSTATS requires a coordinator (turboflux-shard)")) == nil
	case KindStats:
		resp, err := c.a.call(request{kind: reqStats})
		if err != nil {
			return false
		}
		return c.WriteData(resp.lines) == nil
	default:
		return c.WriteErr(fmt.Errorf("server: unhandled request kind %d", req.Kind)) == nil
	}
}

// simpleCall forwards a request whose success reply carries no payload.
func (c *conn) simpleCall(req request) bool {
	resp, err := c.a.call(req)
	if err != nil {
		return false
	}
	if resp.err != nil {
		return c.WriteErr(resp.err) == nil
	}
	return c.WriteLine("+OK") == nil
}

func (c *conn) finishBatch(ups []stream.Update) bool {
	resp, err := c.a.call(request{kind: reqBatch, ups: ups})
	if err != nil {
		return false
	}
	if resp.err != nil {
		return c.WriteErr(resp.err) == nil
	}
	return c.WriteLine(fmt.Sprintf("+OK %d %d %d", resp.seq, len(ups), resp.total)) == nil
}

// subscribe registers a subscription with the actor. A subscription the
// server finished (eviction, unregistration) counts as absent, so the
// client can subscribe again after *EVICTED.
func (c *conn) subscribe(name string) bool {
	if old := c.subs[name]; old != nil && !old.finished() {
		return c.WriteErr(fmt.Errorf("server: already subscribed to %q", name)) == nil
	}
	if c.out == nil {
		c.out = newOutbox()
		c.writers.Add(1)
		//tf:goroutine conn-writer
		go c.writeLoop(c.out)
	}
	sub := newSubscriber(name, c.id, c.srv.queueDepth, c.out)
	resp, err := c.a.call(request{kind: reqSubscribe, name: name, sub: sub})
	if err != nil {
		return false
	}
	if resp.err != nil {
		return c.WriteErr(resp.err) == nil
	}
	c.subs[name] = sub
	return c.WriteLine(fmt.Sprintf("+OK %d", resp.seq)) == nil
}

func (c *conn) unsubscribe(name string) bool {
	sub := c.subs[name]
	delete(c.subs, name)
	if sub == nil || sub.finished() {
		return c.WriteErr(fmt.Errorf("server: not subscribed to %q", name)) == nil
	}
	sub.close()
	resp, err := c.a.call(request{kind: reqUnsubscribe, name: name, connID: c.id})
	if err != nil {
		return false
	}
	if resp.err != nil {
		return c.WriteErr(resp.err) == nil
	}
	return c.WriteLine("+OK") == nil
}

// writeLoop is the connection's one push writer: it swaps the outbox's
// filling buffer for its spare and writes it in one piece, one lock per
// buffer. Once the outbox is shut (teardown, Shutdown) it drains what was
// accepted — the graceful "flush subscriber queues" step — and exits. Write
// errors are sticky in the Wire, so a dead peer degrades this loop to a
// fast drain that still releases a blocked actor.
func (c *conn) writeLoop(ob *outbox) {
	defer c.writers.Done()
	var spare []byte
	for {
		buf, ok := ob.take(spare)
		if !ok {
			return
		}
		c.WriteFrame(buf, nil, true) //tf:unchecked-ok sticky error; the loop keeps draining
		spare = buf
	}
}

// teardown ends the connection: it finishes this connection's
// subscriptions (releasing any actor blocked on a full queue), tells the
// actor to forget them, waits for the writer to flush what was accepted,
// and closes the socket.
func (c *conn) teardown() {
	//tf:unordered-ok closing subscriptions; the outbox keeps emission order
	for _, sub := range c.subs {
		sub.close()
	}
	c.a.send(request{kind: reqDropConn, connID: c.id}) //tf:unchecked-ok best-effort after shutdown
	if c.out != nil {
		c.out.shut()
	}
	c.writers.Wait()
	c.WriteFrame(nil, nil, true) //tf:unchecked-ok closing
	c.nc.Close()                 //tf:unchecked-ok closing
	c.srv.removeConn(c)
}
