// Package fanout implements the parallel multi-query fan-out layer: a
// persistent worker pool that evaluates one run of updates against many
// engines concurrently, and the per-engine emission buffers that make
// the parallel window invisible to OnMatch observers.
//
// The contract (DESIGN.md §11): graph mutation stays serial, engines only
// read the shared data graph during evaluation (the frozen-graph window,
// machine-checked by turboflux-vet's eval-readonly analyzer), and every
// OnMatch emission produced inside the window is buffered per engine and
// replayed in (update, registration) order after the barrier — so
// transcripts are byte-identical to evaluating every engine on every
// update in turn.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"turboflux/internal/graph"
)

// Stats is a snapshot of fan-out counters. Workers, Pooled, Batches,
// BusyNs and PerWorker are owned by the Pool; Evals and Skipped are
// owned by the coordinator (MultiEngine) and merged into the snapshot.
type Stats struct {
	// Workers is the configured pool size.
	Workers int `json:"workers"`
	// Evals counts per-engine evaluations actually run (any mode).
	Evals uint64 `json:"evals"`
	// Skipped counts engine evaluations elided by label-relevance
	// routing: the update's edge label does not occur in the query, so
	// evaluation would have been a no-op.
	Skipped uint64 `json:"skipped"`
	// Pooled counts evaluations dispatched to pool workers (the rest ran
	// inline on the coordinator goroutine).
	Pooled uint64 `json:"pooled"`
	// Batches counts parallel fan-out barriers executed.
	Batches uint64 `json:"batches"`
	// BusyNs is total worker-goroutine busy time in nanoseconds.
	BusyNs uint64 `json:"busy_ns"`
	// PerWorker is the number of tasks each worker executed.
	PerWorker []uint64 `json:"per_worker"`
}

// task is one unit handed to a worker: run it, then signal the batch
// barrier.
type task struct {
	run func()
	wg  *sync.WaitGroup
}

// Pool is a persistent worker pool sized once at construction. Workers
// start lazily on the first parallel batch, so a pool behind an engine
// that only ever sees single-relevant-query updates costs nothing.
//
// Run and Close must not be called concurrently with each other; the
// pool matches MultiEngine's single-coordinator discipline.
type Pool struct {
	workers int

	mu      sync.Mutex
	ch      chan task
	started bool
	closed  bool

	// wg is the reusable batch barrier. Reuse across Run calls is safe
	// because Run is never concurrent with itself: Wait returns only when
	// the previous batch's count reaches zero, strictly before the next
	// Add. Owning it here (instead of a per-Run local) keeps the barrier
	// off the heap: a local WaitGroup escapes through the task channel and
	// would cost one allocation per parallel update.
	wg sync.WaitGroup

	batches   atomic.Uint64
	pooled    atomic.Uint64
	busyNs    atomic.Uint64
	perWorker []atomic.Uint64
}

// New builds a pool of the given size; n <= 0 means GOMAXPROCS.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n, perWorker: make([]atomic.Uint64, n)}
}

// Workers returns the configured pool size.
func (p *Pool) Workers() int { return p.workers }

// Run executes every task and returns once all have completed — the
// fan-out barrier. The first task runs inline on the caller's goroutine
// (it would otherwise sit idle at the barrier); the rest go to the
// workers. With a single worker, or after Close, all tasks run inline
// in order.
func (p *Pool) Run(tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	inline := p.workers <= 1 || len(tasks) == 1
	if !inline {
		p.mu.Lock()
		switch {
		case p.closed:
			inline = true
		case !p.started:
			p.started = true
			p.ch = make(chan task) //tf:unbuffered-ok rendezvous handoff; the batch barrier bounds outstanding tasks
			for i := 0; i < p.workers; i++ {
				//tf:goroutine fanout-worker
				go p.worker(i)
			}
		}
		p.mu.Unlock()
	}
	if inline {
		for _, fn := range tasks {
			fn()
		}
		return
	}
	p.batches.Add(1)
	p.pooled.Add(uint64(len(tasks) - 1))
	p.wg.Add(len(tasks) - 1)
	for _, fn := range tasks[1:] {
		p.ch <- task{run: fn, wg: &p.wg}
	}
	tasks[0]()
	p.wg.Wait()
}

func (p *Pool) worker(i int) {
	for t := range p.ch {
		t0 := time.Now()
		t.run()
		p.busyNs.Add(uint64(time.Since(t0).Nanoseconds()))
		p.perWorker[i].Add(1)
		t.wg.Done()
	}
}

// Close releases the worker goroutines. Idempotent. The pool stays
// usable afterwards: Run degrades to inline execution, so a closed pool
// behaves exactly like workers=1.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.started {
		close(p.ch)
	}
}

// Stats snapshots the pool-owned counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		Workers:   p.workers,
		Pooled:    p.pooled.Load(),
		Batches:   p.batches.Load(),
		BusyNs:    p.busyNs.Load(),
		PerWorker: make([]uint64, len(p.perWorker)),
	}
	for i := range p.perWorker {
		s.PerWorker[i] = p.perWorker[i].Load()
	}
	return s
}

// Emission is one buffered OnMatch delivery.
type Emission struct {
	Positive bool
	Mapping  []graph.VertexID
}

// EmissionBuffer captures OnMatch deliveries produced during the
// parallel window so the coordinator can replay them in registration
// order after the barrier. Each buffer is written by exactly one worker
// per run (the one evaluating its engine, for the one update the run
// engaged it with) and read by the coordinator after the barrier, so no
// locking is needed.
//
// Mapping storage is recycled across runs: Record copies the
// engine-owned mapping slice (engines reuse it between emissions), and
// Reset keeps the backing arrays for the next run.
type EmissionBuffer struct {
	ems []Emission
	n   int
}

// Record appends one emission, copying the mapping.
func (b *EmissionBuffer) Record(positive bool, m []graph.VertexID) {
	if b.n < len(b.ems) {
		e := &b.ems[b.n]
		e.Positive = positive
		e.Mapping = append(e.Mapping[:0], m...)
	} else {
		b.ems = append(b.ems, Emission{
			Positive: positive,
			Mapping:  append([]graph.VertexID(nil), m...),
		})
	}
	b.n++
}

// Replay invokes fn for each recorded emission in record order. The
// mapping slice passed to fn is buffer-owned and reused, matching the
// engine's own OnMatch contract.
func (b *EmissionBuffer) Replay(fn func(positive bool, mapping []graph.VertexID)) {
	for i := 0; i < b.n; i++ {
		fn(b.ems[i].Positive, b.ems[i].Mapping)
	}
}

// Reset forgets the recorded emissions but keeps their storage.
func (b *EmissionBuffer) Reset() { b.n = 0 }

// Len reports the number of buffered emissions.
func (b *EmissionBuffer) Len() int { return b.n }
