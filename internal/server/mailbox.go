package server

import "sync"

// mailboxDepth is every Mailbox's queue capacity: how many requests may
// wait behind the one being handled before senders block, so a busy owner
// backpressures its connections instead of queueing without limit.
const mailboxDepth = 128

// Mailbox is the request loop of a single-writer owner — the engine-owner
// actor here, the router in internal/shard. One goroutine runs the owner's
// handler on every queued request in FIFO order, so the state the handler
// touches needs no lock; connection goroutines reach it only through Send
// and Call. The handler and shutdown functions given to Start are the roots
// of the actor-confinement proof and carry //tf:actor-loop. Start must run
// before the first Send, Call or Stop.
type Mailbox[Req, Resp any] struct {
	reqCh chan envelope[Req, Resp]
	stop  chan struct{} // closed by Stop
	done  chan struct{} // closed by the loop after the drain and shutdown
	once  sync.Once     // guards close(stop)

	// replies holds idle Call reply channels, each empty: up to
	// mailboxDepth, one per caller whose request the queue can hold at
	// once. A caller past that many makes its channel and drops it.
	replies chan chan envelope[Req, Resp]
}

// envelope is one queued request; the loop fills in the answer and, for a
// Call, sends the envelope back on reply (capacity 1, so the loop never
// blocks answering; nil for Send).
type envelope[Req, Resp any] struct {
	req   Req
	resp  Resp
	err   error
	reply chan envelope[Req, Resp]
}

// Start launches the loop. handle runs once per request; shutdown runs
// once, after Stop, when the requests already queued have been handled.
func (b *Mailbox[Req, Resp]) Start(handle func(Req) (Resp, error), shutdown func()) {
	b.reqCh = make(chan envelope[Req, Resp], mailboxDepth)
	b.replies = make(chan chan envelope[Req, Resp], mailboxDepth)
	b.stop = make(chan struct{})
	b.done = make(chan struct{})
	//tf:goroutine mailbox
	go b.loop(handle, shutdown)
}

//tf:hotpath
func (b *Mailbox[Req, Resp]) loop(handle func(Req) (Resp, error), shutdown func()) {
	for {
		select {
		case e := <-b.reqCh:
			e.serve(handle)
		case <-b.stop:
			// The connections are gone: finish what they queued (the loop is
			// the only receiver), then let the owner release what it holds.
			for len(b.reqCh) > 0 {
				(<-b.reqCh).serve(handle)
			}
			shutdown()
			close(b.done)
			return
		}
	}
}

func (e envelope[Req, Resp]) serve(handle func(Req) (Resp, error)) {
	e.resp, e.err = handle(e.req)
	if e.reply != nil {
		e.reply <- e
	}
}

// Send queues req without waiting for it; the handler's error is dropped.
// Like Call it fails fast with ErrClosed once the loop has stopped, so a
// connection goroutine never blocks on a dead owner.
func (b *Mailbox[Req, Resp]) Send(req Req) error {
	return b.put(envelope[Req, Resp]{req: req})
}

func (b *Mailbox[Req, Resp]) put(e envelope[Req, Resp]) error {
	select {
	case <-b.done: // checked first: a free slot must not win after Stop
	default:
		select {
		case b.reqCh <- e:
			return nil
		case <-b.done:
		}
	}
	return ErrClosed
}

// Call queues req and returns the handler's response and error, or
// ErrClosed if the loop stopped without handling req.
//
// The reply channel is reused: Call returns only once the loop has
// answered on it or stopped for good, so it goes back to the free list
// empty and nothing sends on it again.
func (b *Mailbox[Req, Resp]) Call(req Req) (Resp, error) {
	var reply chan envelope[Req, Resp]
	select {
	case reply = <-b.replies:
	default:
		reply = make(chan envelope[Req, Resp], 1)
	}
	defer b.release(reply)
	e := envelope[Req, Resp]{req: req, reply: reply}
	if err := b.put(e); err != nil {
		return e.resp, err
	}
	select {
	case e = <-reply:
	case <-b.done:
		// The loop closes done after its last reply, so a reply sent before
		// it stopped is waiting here; prefer it over the shutdown error.
		select {
		case e = <-reply:
		default:
			e.err = ErrClosed
		}
	}
	return e.resp, e.err
}

// release returns an empty reply channel to the free list, or drops it
// when the list is full.
func (b *Mailbox[Req, Resp]) release(reply chan envelope[Req, Resp]) {
	select {
	case b.replies <- reply:
	default:
	}
}

// Stop ends the loop once the connections are gone and returns after
// shutdown has run. Idempotent and safe to call concurrently.
func (b *Mailbox[Req, Resp]) Stop() {
	b.once.Do(func() { close(b.stop) })
	<-b.done
}
