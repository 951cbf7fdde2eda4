// Package fanout implements the parallel multi-query fan-out layer: a
// persistent crew of workers that runs a window's claim loop beside the
// coordinator, and the per-engine emission buffers that make the parallel
// window invisible to OnMatch observers.
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

// Stats is a snapshot of fan-out counters. Workers, Pooled, Batches and
// BusyNs are owned by the Pool; Evals and Skipped are owned by the
// coordinator (MultiEngine) and merged into the snapshot.
type Stats struct {
	// Workers is the configured pool size.
	Workers int
	// Evals counts per-engine searches actually run (any mode); a twin's
	// copy of its source's evaluation (MultiEngine.TwinOf) is not one.
	Evals uint64
	// Skipped counts engine evaluations elided by label-relevance
	// routing: the update's edge label does not occur in the query, so
	// evaluation would have been a no-op.
	Skipped uint64
	// Pooled counts runs of the loop handed to pool workers (the caller's
	// own run of it is not one): at most workers − 1 per Run.
	Pooled uint64
	// Batches counts parallel barriers: the Runs that handed the loop to
	// at least one worker.
	Batches uint64
	// BusyNs is total worker-goroutine busy time in nanoseconds.
	BusyNs uint64
}

// Pool is a persistent crew of workers sized once at construction, all
// running the one loop it was built with. Workers start lazily on the
// first parallel Run, so a pool behind an engine whose windows never
// engage two units costs nothing.
//
// Run and Close must not be called concurrently with each other; the
// pool matches MultiEngine's single-coordinator discipline.
type Pool struct {
	workers int
	loop    func()

	mu      sync.Mutex
	wake    chan struct{}
	started bool
	closed  bool

	// wg is the reusable barrier. Reuse across Run calls is safe because
	// Run is never concurrent with itself: Wait returns only when the
	// previous Run's count reaches zero, strictly before the next Add.
	wg sync.WaitGroup

	batches atomic.Uint64
	pooled  atomic.Uint64
	busyNs  atomic.Uint64
}

// New builds a pool of n workers that run loop; n <= 0 means GOMAXPROCS.
// The loop must divide the work among however many runners enter it, for
// example by claiming items from a shared atomic cursor.
func New(n int, loop func()) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n, loop: loop}
}

// Workers returns the configured pool size.
func (p *Pool) Workers() int { return p.workers }

// Run runs the loop on the caller and on min(k, workers) − 1 woken
// workers, and returns once every run has finished — the fan-out
// barrier. With k <= 1, a single worker, or after Close, the loop runs
// once, on the caller alone.
func (p *Pool) Run(k int) {
	k = min(k, p.workers)
	if k > 1 {
		p.mu.Lock()
		switch {
		case p.closed:
			k = 1
		case !p.started:
			p.started = true
			p.wake = make(chan struct{})
			for range p.workers {
				//tf:goroutine fanout-worker
				go p.worker()
			}
		}
		p.mu.Unlock()
	}
	if k <= 1 {
		p.loop()
		return
	}
	p.batches.Add(1)
	p.pooled.Add(uint64(k - 1))
	p.wg.Add(k - 1)
	for range k - 1 {
		p.wake <- struct{}{}
	}
	p.loop()
	p.wg.Wait()
}

func (p *Pool) worker() {
	for range p.wake {
		t0 := time.Now()
		p.loop()
		p.busyNs.Add(uint64(time.Since(t0).Nanoseconds()))
		p.wg.Done()
	}
}

// Close releases the worker goroutines. Idempotent. The pool stays
// usable afterwards: every Run runs the loop on the caller alone, so a
// closed pool behaves exactly like workers=1.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.started {
		close(p.wake)
	}
}

// Stats snapshots the pool-owned counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Workers: p.workers,
		Pooled:  p.pooled.Load(),
		Batches: p.batches.Load(),
		BusyNs:  p.busyNs.Load(),
	}
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
