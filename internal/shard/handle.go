package shard

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"turboflux"
	"turboflux/internal/server"
)

// taskKind identifies one unit of shard work in a fanner's FIFO.
type taskKind uint8

const (
	// taskApply applies a run of updates: a run of one as an update line,
	// a longer run as one BATCHB frame.
	taskApply taskKind = iota
	// taskRegister registers a query (owner shard only).
	taskRegister
	// taskUnregister removes a query (owner shard only).
	taskUnregister
	// taskLabels interns label names, asserting id equality with the
	// coordinator's dictionaries.
	taskLabels
)

// labelDef is one label to sync: the shard must intern name to exactly
// want, or its dictionary has diverged from the coordinator's.
type labelDef struct {
	kind string // "vertex" or "edge"
	name string
	want turboflux.Label
}

// task is one queued unit of shard work. Fan-out tasks share one result
// channel (capacity = number of shards enqueued to), so fanners never
// block sending results and connection goroutines collect exactly
// pending.n of them.
type task struct {
	kind    taskKind
	seq     uint64 // coordinator sequence of the run's first update
	ups     []turboflux.Update
	name    string
	pattern string
	labels  []labelDef
	res     chan taskResult
}

// taskResult is one shard's outcome for one task.
type taskResult struct {
	shard int
	err   error
	ack   server.Ack
}

// pending is a fan-out barrier handle: the router returns it immediately
// and the connection goroutine collects the n per-shard results, keeping
// the router itself off the network.
type pending struct {
	n   int
	res chan taskResult
}

// collect waits for all n results. Fanners always reply — a task queued
// behind a shard's death gets an error result — so this terminates.
func (p pending) collect() []taskResult {
	out := make([]taskResult, 0, p.n)
	for i := 0; i < p.n; i++ {
		out = append(out, <-p.res)
	}
	return out
}

// settle waits for every result and returns the successful ones; a shard
// that died mid-task is skipped — it is down now. The task took effect if
// any shard executed it; otherwise the first shard error is returned.
func (p pending) settle() ([]taskResult, error) {
	results := p.collect()
	var firstErr error
	ok := results[:0]
	for _, res := range results {
		if res.err == nil {
			ok = append(ok, res)
		} else if firstErr == nil {
			firstErr = res.err
		}
	}
	if len(ok) > 0 {
		return ok, nil
	}
	if firstErr == nil {
		firstErr = errors.New("shard: no alive shards")
	}
	return nil, firstErr
}

// shardHandle is the coordinator's view of one shard server: a control
// client owned by the fanner goroutine (updates, registration, label
// sync — the ordered path) and a prober client owned by the heartbeat
// goroutine. Liveness and lag counters are atomics so the router and
// STATS read them without handshakes.
type shardHandle struct {
	id   int
	addr string
	ctl  *server.Client
	hb   *server.Client

	// base is the shard's sequence number at attach; after the
	// coordinator has fanned k updates the shard must ack base+k.
	base uint64

	tasks chan *task
	stop  chan struct{} // stops the heartbeat prober
	wg    sync.WaitGroup

	alive   atomic.Bool
	applied atomic.Uint64 // updates acked since attach
	misses  atomic.Int64  // consecutive heartbeat misses
	pingUs  atomic.Int64  // last successful probe round trip

	reasonMu sync.Mutex
	reason   string // first cause of death

	hbInterval time.Duration
	hbMisses   int
}

// attach dials one shard and verifies it is writable. The shard's
// current sequence number (from STATS) becomes the ack base.
func attach(id int, addr string, opt Options) (*shardHandle, error) {
	dialOpt := server.DialOptions{
		Timeout:        opt.DialTimeout,
		RequestTimeout: opt.RequestTimeout,
	}
	ctl, err := server.DialWith(addr, dialOpt)
	if err != nil {
		return nil, err
	}
	hb, err := server.DialWith(addr, dialOpt)
	if err != nil {
		ctl.Close() //tf:unchecked-ok abandoning a half-attached shard
		return nil, err
	}
	h := &shardHandle{
		id:         id,
		addr:       addr,
		ctl:        ctl,
		hb:         hb,
		tasks:      make(chan *task, fannerQueueDepth),
		stop:       make(chan struct{}),
		hbInterval: opt.HeartbeatInterval,
		hbMisses:   opt.HeartbeatMisses,
	}
	if err := h.admit(); err != nil {
		h.closeClients()
		return nil, err
	}
	h.alive.Store(true)
	return h, nil
}

// admit reads the shard's STATS at attach: a follower is refused, and the
// shard's sequence number becomes the ack base. A payload lacking it is
// refused too.
func (h *shardHandle) admit() error {
	st, err := h.hb.Stats()
	if err != nil {
		return err
	}
	role, err := st.Role()
	if err != nil {
		return err
	}
	if role == "follower" {
		leader, err := st.Line("replica").Str("leader")
		if err != nil {
			return err
		}
		return fmt.Errorf("shard is a read-only follower of %s", leader)
	}
	h.base, err = st.Line("server").Uint("seq")
	return err
}

// start launches the fanner and heartbeat goroutines (after the router
// exists, so down-marking has somewhere to surface).
func (h *shardHandle) start() {
	h.wg.Add(2)
	//tf:goroutine shard-fanner
	go h.fanner()
	//tf:goroutine shard-heartbeat
	go h.heartbeat()
}

// closeClients releases the shard connections (attach-failure cleanup
// and router shutdown).
func (h *shardHandle) closeClients() {
	h.ctl.Close() //tf:unchecked-ok closing
	h.hb.Close()  //tf:unchecked-ok closing
}

// down marks the shard dead (fail-stop: it is never revived) and
// returns the decorated error. Only the first cause is kept, and it is
// logged to standard error once: STATS shows only alive=false, so the log
// line is where an operator tells a sequence gap from a heartbeat death.
func (h *shardHandle) down(cause error) error {
	h.reasonMu.Lock()
	first := h.reason == ""
	if first {
		h.reason = cause.Error()
	}
	h.reasonMu.Unlock()
	err := fmt.Errorf("shard: shard %d (%s) down: %w", h.id, h.addr, cause)
	if first {
		log.Print(err) // before the mark, so whoever sees alive=false finds the line
	}
	h.alive.Store(false)
	return err
}

func (h *shardHandle) downReason() string {
	h.reasonMu.Lock()
	defer h.reasonMu.Unlock()
	return h.reason
}

// fanner drains the shard's task FIFO onto its control connection. One
// goroutine per shard preserves the router's enqueue order — the
// cluster's total update order — per shard; fanners of different shards
// overlap their round trips.
func (h *shardHandle) fanner() {
	defer h.wg.Done()
	for t := range h.tasks {
		t.res <- h.execute(t)
	}
}

// execute performs one task against the shard. Any transport error or
// sequence mismatch marks the shard down; tasks queued behind a death
// report errors without touching the network.
func (h *shardHandle) execute(t *task) taskResult {
	res := taskResult{shard: h.id}
	if !h.alive.Load() {
		res.err = fmt.Errorf("shard: shard %d (%s) is down: %s", h.id, h.addr, h.downReason())
		return res
	}
	switch t.kind {
	case taskApply:
		res.ack, res.err = h.apply(t)
	case taskRegister:
		// The coordinator already parsed the pattern, so a rejection here
		// is a version or dictionary divergence, not a client error.
		if err := h.ctl.Register(t.name, t.pattern); err != nil {
			res.err = h.down(fmt.Errorf("register %q: %w", t.name, err))
		}
	case taskUnregister:
		if err := h.ctl.Unregister(t.name); err != nil {
			res.err = h.down(fmt.Errorf("unregister %q: %w", t.name, err))
		}
	case taskLabels:
		for _, l := range t.labels {
			id, err := h.ctl.Label(l.kind, l.name)
			if err != nil {
				res.err = h.down(fmt.Errorf("label %s %q: %w", l.kind, l.name, err))
				return res
			}
			if id != l.want {
				res.err = h.down(fmt.Errorf("label dictionary divergence: %s %q interned as %d, want %d",
					l.kind, l.name, id, l.want))
				return res
			}
		}
	}
	return res
}

// apply sends a run to the shard: a run of one as an update line, a longer
// run as a binary BATCHB frame, which the shard decodes without parsing
// text. The line stays because only a line's ack carries the per-query
// counts the coordinator merges into a single line's ack. A transport
// error or a sequence gap marks the shard down.
func (h *shardHandle) apply(t *task) (server.Ack, error) {
	want := h.base + t.seq
	if len(t.ups) == 1 {
		ack, err := h.ctl.Apply(t.ups[0])
		if err != nil {
			return ack, h.down(fmt.Errorf("apply: %w", err))
		}
		if ack.Seq != want {
			return ack, h.down(fmt.Errorf("sequence gap: shard acked %d, want %d", ack.Seq, want))
		}
		h.applied.Add(1)
		return ack, nil
	}
	back, err := h.ctl.BatchBinary(t.ups)
	if err != nil {
		return server.Ack{}, h.down(fmt.Errorf("batch: %w", err))
	}
	if back.FirstSeq != want || back.Applied != len(t.ups) {
		return server.Ack{}, h.down(fmt.Errorf("sequence gap: shard acked batch %d+%d, want %d+%d",
			back.FirstSeq, back.Applied, want, len(t.ups)))
	}
	h.applied.Add(uint64(len(t.ups)))
	return server.Ack{Seq: back.FirstSeq, Total: back.Total}, nil
}

// heartbeat probes the shard at hbInterval and marks it down after
// hbMisses consecutive failures. A timed-out probe poisons the prober
// connection, so later probes fail fast and the misses accumulate —
// fail-stop, no redial. The probe is a STATS round trip rather than a
// bare PING because the shard's connection answers PING itself, while
// STATS is answered by the shard's actor: only the latter proves the
// shard is still serving. Nothing is read from the reply.
func (h *shardHandle) heartbeat() {
	defer h.wg.Done()
	tick := time.NewTicker(h.hbInterval)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
			if !h.alive.Load() {
				continue
			}
			start := time.Now()
			if _, err := h.hb.Stats(); err != nil {
				if n := h.misses.Add(1); int(n) >= h.hbMisses {
					h.down(fmt.Errorf("heartbeat: %d consecutive misses: %w", n, err)) //tf:unchecked-ok down-marking is the effect; no caller to report to
				}
				continue
			}
			h.misses.Store(0)
			h.pingUs.Store(time.Since(start).Microseconds())
		}
	}
}
