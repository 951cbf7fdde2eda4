// Package fanout implements the parallel multi-query fan-out layer: a
// persistent worker pool that evaluates one window of updates against many
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
	// Evals counts per-engine searches actually run (any mode); a twin's
	// copy of its source's evaluation (MultiEngine.TwinOf) is not one.
	Evals uint64 `json:"evals"`
	// Skipped counts engine evaluations elided by label-relevance
	// routing: the update's edge label does not occur in the query, so
	// evaluation would have been a no-op.
	Skipped uint64 `json:"skipped"`
	// Pooled counts tasks handed to pool workers (the rest ran inline on
	// the coordinator goroutine). MultiEngine's tasks are claim loops over
	// a window's evaluation units, at most one per worker and window.
	Pooled uint64 `json:"pooled"`
	// Batches counts parallel fan-out barriers executed: for MultiEngine,
	// the evaluation windows that handed at least one claim loop to the
	// pool.
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

// emissionKeep is the mapping storage, in vertex IDs (256 KB), an
// EmissionBuffer keeps across Reset whatever its windows emit; a larger
// arena is kept until emissionIdle windows in a row have each filled less
// than a quarter of it.
const (
	emissionKeep = 1 << 16
	emissionIdle = 16
)

// EmissionBuffer captures the OnMatch deliveries one engine produces
// during an evaluation window so the coordinator can replay them in
// (update, registration) order after the barrier. The worker evaluating the
// engine records into it and closes one segment per update evaluated
// (EndSegment); the coordinator replays segment by segment after the
// barrier, so no locking is needed.
//
// Storage is flat: one arena of mappings laid end to end (every mapping of
// an engine has its query's vertex count, the stride), one sign per
// mapping, one end mark per segment — no heap object per emission. Record
// copies the engine-owned mapping slice (engines reuse it between
// emissions); Reset keeps the arrays for the next window.
type EmissionBuffer struct {
	maps     []graph.VertexID // n mappings of stride vertex IDs each
	positive []bool           // sign of each mapping
	ends     []int32          // ends[k] = mappings recorded when segment k closed
	stride   int
	idle     int // windows in a row that filled less than a quarter of an arena past emissionKeep
}

// Record appends one emission to the open segment, copying the mapping.
// Every mapping recorded between two Resets has the same length.
func (b *EmissionBuffer) Record(positive bool, m []graph.VertexID) {
	b.stride = len(m)
	b.maps = append(b.maps, m...)
	b.positive = append(b.positive, positive)
}

// EndSegment closes the open segment — the emissions of one update — and
// opens the next.
func (b *EmissionBuffer) EndSegment() {
	b.ends = append(b.ends, int32(len(b.positive)))
}

// ReplaySegment invokes fn for each emission of segment k, the k-th closed
// since Reset, in record order. The mapping slice passed to fn is
// buffer-owned and reused, matching the engine's own OnMatch contract.
func (b *EmissionBuffer) ReplaySegment(k int, fn func(positive bool, mapping []graph.VertexID)) {
	lo := 0
	if k > 0 {
		lo = int(b.ends[k-1])
	}
	for i := lo; i < int(b.ends[k]); i++ {
		at := i * b.stride
		fn(b.positive[i], b.maps[at:at+b.stride:at+b.stride])
	}
}

// Reset forgets the recorded emissions and segments and keeps their
// storage for the next window — unless the arena is beyond emissionKeep and
// the last emissionIdle windows, this one included, each used less than a
// quarter of it: what an explosive stretch grew is released after
// emissionIdle ordinary windows, while a query whose large windows recur
// among small ones keeps its working set instead of regrowing it from
// empty after every small one.
func (b *EmissionBuffer) Reset() {
	if cap(b.maps) <= emissionKeep || len(b.maps) >= cap(b.maps)/4 {
		b.idle = 0
	} else if b.idle++; b.idle == emissionIdle {
		b.maps, b.positive, b.idle = nil, nil, 0
	}
	b.maps, b.positive, b.ends = b.maps[:0], b.positive[:0], b.ends[:0]
}

// Len reports the number of buffered emissions.
func (b *EmissionBuffer) Len() int { return len(b.positive) }
