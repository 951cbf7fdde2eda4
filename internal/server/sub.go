package server

import (
	"fmt"
	"sync"
)

// SlowPolicy selects what the engine-owner does when a subscriber's
// bounded event queue is full.
type SlowPolicy uint8

const (
	// PolicyBlock stalls the update (and therefore its ack) until the
	// subscriber drains — lossless backpressure that propagates to every
	// producer, because updates are serialized through one actor.
	PolicyBlock SlowPolicy = iota
	// PolicyDrop discards the newest event and increments the
	// subscriber's drop counter (surfaced by STATS). Ingest never stalls;
	// the subscriber's transcript gets holes.
	PolicyDrop
	// PolicyEvict cancels the subscription: the subscriber receives an
	// *EVICTED notice after the events already queued. Ingest never
	// stalls and surviving subscribers keep lossless transcripts.
	PolicyEvict
)

// ParseSlowPolicy parses "block", "drop" or "evict".
func ParseSlowPolicy(s string) (SlowPolicy, error) {
	switch s {
	case "block":
		return PolicyBlock, nil
	case "drop":
		return PolicyDrop, nil
	case "evict":
		return PolicyEvict, nil
	default:
		return 0, fmt.Errorf("server: unknown slow-consumer policy %q (want block, drop or evict)", s)
	}
}

// String returns the flag spelling of the policy.
func (p SlowPolicy) String() string {
	switch p {
	case PolicyBlock:
		return "block"
	case PolicyDrop:
		return "drop"
	case PolicyEvict:
		return "evict"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// subscriber is one (connection, query) match stream. Its events live as
// rendered bytes in its connection's outbox; the subscriber keeps the
// event-granular accounting the slow-consumer policy and STATS need. depth,
// epoch and closed are guarded by ob.mu (the writer's swap resets depth,
// any goroutine may close); the counters are owned by the actor goroutine.
type subscriber struct {
	query  string
	connID uint64
	ob     *outbox
	cap    int // queue capacity in events

	depth  int    // events in ob.fill, valid while epoch == ob.epoch
	epoch  uint64 // ob.epoch at the last accepted event
	closed bool   // finished: unsubscribe, eviction, conn teardown or shutdown

	// Actor-owned lag counters, surfaced by STATS.
	enqueued uint64
	dropped  uint64
	maxDepth int
}

func newSubscriber(query string, connID uint64, depth int, ob *outbox) *subscriber {
	return &subscriber{query: query, connID: connID, ob: ob, cap: depth}
}

// end finishes the subscription (ob.mu held), releasing an actor blocked
// on it; with notice, the *EVICTED line follows, in the same byte stream,
// the events accepted so far. It reports whether the subscription was live.
func (s *subscriber) end(notice bool) bool {
	if s.closed {
		return false
	}
	s.closed = true
	s.ob.drained.Broadcast()
	if notice {
		s.ob.fill = append(append(append(s.ob.fill, "*EVICTED "...), s.query...), '\n')
	}
	return true
}

// close finishes the subscription silently (unsubscribe, teardown,
// shutdown). Safe to call from any goroutine, any number of times.
func (s *subscriber) close() {
	s.ob.mu.Lock()
	s.end(false)
	s.ob.mu.Unlock()
}

// evict finishes a live subscription with the *EVICTED notice.
func (s *subscriber) evict() bool {
	s.ob.mu.Lock()
	defer s.ob.mu.Unlock()
	return s.end(true)
}

// finished reports whether the subscription has ended.
func (s *subscriber) finished() bool {
	s.ob.mu.Lock()
	defer s.ob.mu.Unlock()
	return s.closed
}

// Finished and Cancel make the subscriber its connection's Subscription
// handle.
func (s *subscriber) Finished() bool { return s.finished() }
func (s *subscriber) Cancel()        { s.close() }

// queued returns how many of this subscription's events wait in the
// filling buffer (ob.mu held).
func (s *subscriber) queued() int {
	if s.epoch != s.ob.epoch {
		return 0
	}
	return s.depth
}

// pushed is what the slow-consumer policy did with a burst of events.
type pushed struct {
	queued  int  // accepted into the outbox
	dropped int  // discarded by PolicyDrop
	evicted bool // PolicyEvict cancelled the subscription on an overflow
	gone    bool // the subscription finished; the rest was discarded
}

// push offers a burst of rendered event lines — block, with ends[i] the
// offset just past line i — and copies what the slow-consumer policy
// accepts into the connection's outbox, counting in events. Actor
// goroutine only, once per burst and subscriber: no allocation once the
// buffers have grown, no wake-up unless the writer is parked past wakeBytes.
//
//tf:hotpath
func (s *subscriber) push(block []byte, ends []int, policy SlowPolicy) (p pushed) {
	ob := s.ob
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for off := 0; p.queued < len(ends); {
		if s.closed {
			p.gone = true
			return p
		}
		d := s.queued()
		if d >= s.cap {
			switch policy {
			case PolicyDrop:
				p.dropped = len(ends) - p.queued
				s.dropped += uint64(p.dropped)
				return p
			case PolicyEvict:
				p.evicted = s.end(true)
				return p
			}
			// PolicyBlock: wait for the writer to take the filling buffer.
			// It is woken first, so a burst larger than cap makes progress;
			// closing the subscription releases the wait.
			ob.wakeWriter()
			ob.drained.Wait()
			continue
		}
		k := min(s.cap-d, len(ends)-p.queued)
		end := ends[p.queued+k-1]
		ob.fill = append(ob.fill, block[off:end]...)
		off = end
		p.queued += k
		s.epoch, s.depth = ob.epoch, d+k
		s.enqueued += uint64(k)
		if s.depth > s.maxDepth {
			s.maxDepth = s.depth
		}
		if len(ob.fill) >= wakeBytes {
			ob.wakeWriter()
		}
	}
	return p
}

// wakeBytes is the filling-buffer size past which the actor wakes a parked
// writer mid-request, so a long BATCH pipelines engine and socket instead
// of buffering its whole output.
const wakeBytes = 64 << 10

// outbox is one connection's outgoing push stream: rendered *EVENT and
// *EVICTED lines in emission order. The actor appends to fill; the
// connection's writer goroutine swaps fill for its spare buffer and writes
// it, so at most two buffers exist and, with every subscription capped on
// its share of fill, at most 2 x cap events per subscription are held.
type outbox struct {
	mu      sync.Mutex
	wake    sync.Cond // the writer waits here for bytes or shut
	drained sync.Cond // a blocked actor waits here for a swap or a close
	fill    []byte
	epoch   uint64 // bumped by every swap; invalidates subscriber depths
	written uint64 // the epoch whose buffer, and every one before, is on the wire
	parked  bool   // the writer is in wake.Wait and has not been signalled
	closing bool   // shut: the writer exits once fill is empty

	dirty bool // actor-owned: queued for the end-of-request wake
}

func newOutbox() *outbox {
	ob := &outbox{}
	ob.wake.L = &ob.mu
	ob.drained.L = &ob.mu
	return ob
}

// wakeWriter signals a writer parked while bytes wait, once per park
// (ob.mu held).
func (ob *outbox) wakeWriter() {
	if ob.parked && len(ob.fill) > 0 {
		ob.parked = false
		ob.wake.Signal()
	}
}

// take blocks until the filling buffer holds bytes, swaps it for spare
// and returns it; ok is false once the outbox is shut and empty. The swap
// empties every subscription's queue, which releases a blocked actor. The
// writer comes back only once it has written the previous buffer, so take
// also records that every buffer taken so far is on the wire.
func (ob *outbox) take(spare []byte) (buf []byte, ok bool) {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	ob.written = ob.epoch
	for len(ob.fill) == 0 {
		ob.drained.Broadcast() // a flush waits for written; the swap below wakes it otherwise
		if ob.closing {
			return nil, false
		}
		ob.parked = true
		ob.wake.Wait()
	}
	buf, ob.fill = ob.fill, spare[:0]
	ob.epoch++
	ob.drained.Broadcast()
	return buf, true
}

// flush waits until the writer has written every byte accepted so far
// (or exited: it drains before it does).
func (ob *outbox) flush() {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	target := ob.epoch
	if len(ob.fill) > 0 {
		target++ // the next swap takes them
		ob.wakeWriter()
	}
	for ob.written < target {
		ob.drained.Wait()
	}
}

// shut tells the writer to exit after draining what was accepted. The
// connection closes its subscriptions first, so nothing is appended later.
func (ob *outbox) shut() {
	ob.mu.Lock()
	ob.closing = true
	ob.parked = false
	ob.wake.Signal()
	ob.mu.Unlock()
}
