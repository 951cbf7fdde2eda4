package server

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"turboflux"
)

// ErrClosed is the one error that means "hang up": a Backend returns it for
// a request that raced its shutdown. Any other Backend error is a request
// failure, answered with one -ERR line on a connection that stays open.
var ErrClosed = errors.New("server: shut down")

// Backend is what a front end serves: the protocol's verbs, each a complete
// exchange with whatever owns the state. Exactly two types implement it —
// the engine-owner actor (leader and follower alike) and the shard
// coordinator's router — and a Conn cannot tell them apart, which is why a
// client cannot tell a coordinator from a single server. Methods are called
// from connection reader goroutines, any number at once.
type Backend interface {
	// Apply applies a run of updates — a single update line is a run of
	// one, a BATCH/BATCHB frame a longer run — and acks it: Seq is the
	// run's first sequence number, Total its match count and Counts its
	// per-query counts, which only a single line's ack renders. ups is
	// valid only during the call: the connection reuses its array for the
	// next request, so an implementation must not keep it, or anything
	// that aliases it, once Apply returns.
	Apply(ups []turboflux.Update) (Ack, error)
	Register(name, pattern string) error
	Unregister(name string) error
	Queries() ([]string, error)
	Label(kind, name string) (turboflux.Label, error)
	Stats() ([]string, error)
	ShardStats() ([]string, error)
	Promote() error

	// Subscribe starts streaming the query's pushes to c — through c's
	// outbox or straight onto its Wire, the backend's choice — and returns
	// the handle c keeps and the sequence number the stream starts after.
	Subscribe(c *Conn, name string) (Subscription, uint64, error)
	// Replicate turns c into a replication stream past the given LSN and
	// returns nil once the stream has ended (the connection then closes);
	// an error means it never started.
	Replicate(c *Conn, after uint64) error

	// DropConn releases whatever the backend still holds for a connection
	// that is gone. Best-effort once the backend has stopped.
	DropConn(id uint64)
	// Stop ends the backend after the last connection is gone: it finishes
	// the requests already accepted, closes what it owns and returns the
	// store's close error, if any. Idempotent.
	Stop() error
}

// Subscription is a backend's handle on one (connection, query) push
// stream. What a connection is subscribed to is decided by its subs map;
// the handle says whether the backend ended the stream on its own
// (eviction, unregistration, a dead shard — the entry then counts as
// absent) and lets the Conn end it. Cancel is silent, releases a backend
// blocked on the stream, and must not wait for the backend: teardown
// cancels every handle before it tells the backend anything.
type Subscription interface {
	Finished() bool
	Cancel()
}

// Conn is one client connection of a Front. The reader goroutine (serve)
// owns the Wire's read side, the subs map and out; replies, the outbox
// writer and a backend's direct pushes share the socket through the Wire's
// write side.
type Conn struct {
	*Wire
	front *Front
	be    Backend
	nc    net.Conn
	id    uint64

	subs    map[string]Subscription // this connection's subscriptions, by query
	out     *outbox                 // push stream; made with its writer at first use
	writers sync.WaitGroup          // everything Go started: outbox writer, relays, replication pump
	one     [1]turboflux.Update     // the run of one an update line is applied as
}

// serve runs the request loop, then tears the connection down.
func (c *Conn) serve() {
	defer c.teardown()
	c.Serve(c.dispatch)
}

// dispatch executes one parsed request. It returns false when the
// connection should close (QUIT, write failure, a finished replication
// stream, or ErrClosed from the backend).
func (c *Conn) dispatch(req Request) bool {
	var err error
	switch req.Kind {
	case KindPing:
		return c.WriteLine("+OK pong") == nil
	case KindQuit:
		c.WriteLine("+OK bye") //tf:unchecked-ok closing anyway
		return false
	case KindUpdate:
		c.one[0] = req.Update
		var ack Ack
		if ack, err = c.be.Apply(c.one[:]); err == nil {
			return c.WriteAck(ack.Seq, ack.Total, ack.Counts) == nil
		}
	case KindBatch, KindBatchBin:
		ups, ferr, perr := c.ReadBatch(req)
		if ferr != nil {
			return false
		}
		if err = perr; err != nil {
			break
		}
		var ack Ack
		if ack, err = c.be.Apply(ups); err == nil {
			return c.WriteLine(fmt.Sprintf("+OK %d %d %d", ack.Seq, len(ups), ack.Total)) == nil
		}
	case KindRegister:
		err = c.be.Register(req.Name, req.Arg)
	case KindUnregister:
		err = c.be.Unregister(req.Name)
	case KindQueries:
		var names []string
		if names, err = c.be.Queries(); err == nil {
			return c.WriteNames(names) == nil
		}
	case KindLabel:
		var id turboflux.Label
		if id, err = c.be.Label(req.Name, req.Arg); err == nil {
			return c.WriteLine(fmt.Sprintf("+OK %d", id)) == nil
		}
	case KindSubscribe:
		var seq uint64
		if seq, err = c.subscribe(req.Name); err == nil {
			return c.WriteLine(fmt.Sprintf("+OK %d", seq)) == nil
		}
	case KindUnsubscribe:
		err = c.unsubscribe(req.Name)
	case KindStats, KindShardStats:
		var lines []string
		if req.Kind == KindStats {
			lines, err = c.be.Stats()
		} else {
			lines, err = c.be.ShardStats()
		}
		if err == nil {
			return c.WriteData(lines) == nil
		}
	case KindReplicate:
		if err = c.be.Replicate(c, req.LSN); err == nil {
			return false
		}
	case KindPromote:
		err = c.be.Promote()
	default:
		err = fmt.Errorf("%s: unhandled request kind %d", c.front.name, req.Kind)
	}
	switch {
	case err == nil:
		return c.WriteLine("+OK") == nil
	case errors.Is(err, ErrClosed):
		return false
	}
	return c.WriteErr(err) == nil
}

// subscribe adds a subscription. An entry the backend finished (eviction,
// unregistration, shard death) counts as absent, so the client can
// subscribe again after *EVICTED.
func (c *Conn) subscribe(name string) (uint64, error) {
	if old := c.subs[name]; old != nil {
		if !old.Finished() {
			return 0, fmt.Errorf("%s: already subscribed to %q", c.front.name, name)
		}
		old.Cancel()
		delete(c.subs, name)
	}
	sub, seq, err := c.be.Subscribe(c, name)
	if err != nil {
		return 0, err
	}
	c.subs[name] = sub
	return seq, nil
}

// unsubscribe cancels a subscription. The subs map decides: a handle held
// live is cancelled and the answer is +OK, whatever the backend has or has
// not yet noticed about it. The reply follows every line of the stream it
// ends: Cancel stops the backend adding any, and the outbox writer puts
// those already accepted on the wire before unsubscribe returns.
func (c *Conn) unsubscribe(name string) error {
	sub := c.subs[name]
	delete(c.subs, name)
	live := sub != nil && !sub.Finished()
	if sub != nil {
		sub.Cancel()
		if c.out != nil {
			c.out.flush()
		}
	}
	if !live {
		return fmt.Errorf("%s: not subscribed to %q", c.front.name, name)
	}
	return nil
}

// ID is the connection's number, the one DropConn names.
func (c *Conn) ID() uint64 { return c.id }

// Go runs f on a goroutine the connection's teardown waits for. Backends
// start whatever pushes to this connection with it: the outbox writer, a
// subscription relay, the replication pump.
func (c *Conn) Go(f func()) {
	c.writers.Add(1)
	//tf:goroutine conn-pusher
	go func() {
		defer c.writers.Done()
		f()
	}()
}

// outbox returns the connection's push stream, creating it and its writer
// at first use.
func (c *Conn) outbox() *outbox {
	if c.out == nil {
		c.out = newOutbox()
		c.Go(c.writeLoop)
	}
	return c.out
}

// writeLoop is the connection's one outbox writer: it swaps the filling
// buffer for its spare and writes it in one piece, one lock per buffer.
// Once the outbox is shut (teardown, Shutdown) it drains what was accepted
// — the graceful "flush subscriber queues" step — and exits. Write errors
// are sticky in the Wire, so a dead peer degrades this loop to a fast
// drain that still releases a blocked actor.
func (c *Conn) writeLoop() {
	var spare []byte
	for {
		buf, ok := c.out.take(spare)
		if !ok {
			return
		}
		c.WriteFrame(buf, nil, true) //tf:unchecked-ok sticky error; the loop keeps draining
		spare = buf
	}
}

// teardown ends the connection: cancel every subscription (releasing a
// backend blocked on a full queue, closing relayed streams), tell the
// backend to forget the connection, wait for the pushers to flush what was
// accepted, and close the socket.
func (c *Conn) teardown() {
	//tf:unordered-ok cancelling subscriptions; each push stream keeps its own order
	for _, sub := range c.subs {
		sub.Cancel()
	}
	c.be.DropConn(c.id)
	if c.out != nil {
		c.out.shut()
	}
	c.writers.Wait()
	c.WriteFrame(nil, nil, true) //tf:unchecked-ok closing
	c.nc.Close()                 //tf:unchecked-ok closing
	c.front.removeConn(c)
}
