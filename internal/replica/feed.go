package replica

import "sync/atomic"

// Feed is the leader-side live-frame queue of one follower: the
// engine-owner actor offers every appended chunk, the follower's
// connection pump drains it onto the socket. The queue is bounded and
// Offer never blocks — a follower that cannot keep up overruns the feed,
// which closes it; the pump then drops the connection and the follower
// reconnects and catches up from its applied LSN. This keeps a slow or
// dead replica from ever stalling the leader's ingest path.
//
// Offer and Close are called only by the actor goroutine; Chunks and
// Overrun only by the pump. Chunk data is shared read-only between feeds.
type Feed struct {
	ch      chan Chunk
	overrun atomic.Bool
	closed  bool // actor-side guard against double close
}

// NewFeed builds a feed holding up to depth chunks.
func NewFeed(depth int) *Feed {
	return &Feed{ch: make(chan Chunk, depth)}
}

// Offer enqueues c without blocking. On a full queue it marks the feed
// overrun and closes it, returning false; the feed accepts nothing
// afterwards.
//
//tf:hotpath
func (f *Feed) Offer(c Chunk) bool {
	if f.closed {
		return false
	}
	select {
	case f.ch <- c:
		return true
	default:
		f.overrun.Store(true)
		f.closed = true
		close(f.ch)
		return false
	}
}

// Close ends the feed; the pump's range loop terminates after draining
// what is queued. Idempotent (but never call it after Offer returned
// false — Offer already closed the channel).
func (f *Feed) Close() {
	if !f.closed {
		f.closed = true
		close(f.ch)
	}
}

// Chunks returns the drain side of the feed. The channel closes when the
// actor closes the feed or it overruns.
func (f *Feed) Chunks() <-chan Chunk { return f.ch }

// Overrun reports whether the feed was closed because the follower fell
// too far behind (checked by the pump after the channel closes).
func (f *Feed) Overrun() bool { return f.overrun.Load() }
