package fanout

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"turboflux/internal/graph"
)

// TestPoolRunners: Run(k) runs the loop on max(1, min(k, workers))
// runners, the caller and min(k, workers) − 1 woken workers, each once.
func TestPoolRunners(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		var n atomic.Int64
		p := New(workers, func() { n.Add(1) })
		for _, k := range []int{0, 1, 2, 3, 7, 8, 16} {
			n.Store(0)
			p.Run(k)
			if got, want := n.Load(), int64(max(1, min(k, workers))); got != want {
				t.Fatalf("workers=%d: Run(%d) ran the loop %d times, want %d", workers, k, got, want)
			}
		}
		p.Close()
	}
}

// TestPoolBarrierStress: every run's writes are visible to the caller once
// Run returns. The runners claim slots from a shared cursor, as
// MultiEngine's claim loop claims units, and write them without atomics,
// so the race detector checks the barrier's happens-before edges.
func TestPoolBarrierStress(t *testing.T) {
	out := make([]int, 16)
	var cursor atomic.Int32
	round := 0
	p := New(4, func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(out) {
				return
			}
			out[i] = round + 1
		}
	})
	defer p.Close()
	for round = 0; round < 50; round++ {
		cursor.Store(0)
		p.Run(len(out))
		for i, v := range out {
			if v != round+1 {
				t.Fatalf("round %d: slot %d write not visible after barrier (got %d)", round, i, v)
			}
		}
	}
}

func TestPoolDefaultSize(t *testing.T) {
	if got, want := New(0, func() {}).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("New(0).Workers() = %d, want GOMAXPROCS %d", got, want)
	}
}

// TestPoolCloseIdempotentAndInlineAfter: after Close the caller runs the
// loop alone, and such a Run is not counted as parallel.
func TestPoolCloseIdempotentAndInlineAfter(t *testing.T) {
	var n atomic.Int64
	p := New(4, func() { n.Add(1) })
	p.Run(4) // start workers
	p.Close()
	p.Close()
	n.Store(0)
	p.Run(4)
	if got := n.Load(); got != 1 {
		t.Fatalf("Run(4) after Close ran the loop %d times, want once on the caller", got)
	}
	if s := p.Stats(); s.Batches != 1 || s.Pooled != 3 {
		t.Fatalf("Run after Close counted as parallel: batches=%d pooled=%d, want 1 and 3", s.Batches, s.Pooled)
	}
}

func TestPoolNeverStartedClose(t *testing.T) {
	n := 0
	p := New(4, func() { n++ })
	p.Close() // must not panic or leak
	p.Run(3)
	if n != 1 {
		t.Fatalf("Run(3) after Close ran the loop %d times, want 1", n)
	}
}

// TestPoolStats: a parallel Run pools min(k, workers) − 1 runs and counts
// one batch; a Run the caller runs alone counts neither.
func TestPoolStats(t *testing.T) {
	p := New(2, func() {})
	defer p.Close()
	p.Run(3)
	p.Run(2)
	p.Run(1)
	p.Run(0)
	s := p.Stats()
	if s.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", s.Workers)
	}
	if s.Batches != 2 {
		t.Fatalf("Batches = %d, want 2", s.Batches)
	}
	if s.Pooled != 2 {
		t.Fatalf("Pooled = %d, want 2", s.Pooled)
	}
	q := New(4, func() {})
	defer q.Close()
	q.Run(3)
	if s := q.Stats(); s.Batches != 1 || s.Pooled != 2 {
		t.Fatalf("New(4).Run(3): batches=%d pooled=%d, want 1 and 2", s.Batches, s.Pooled)
	}
}

// BenchmarkPoolHandOff measures what one window costs the pool with an
// empty loop on a 2-worker pool: k=1 is the caller alone, k=2 one hand-off
// to a woken worker and the barrier.
func BenchmarkPoolHandOff(b *testing.B) {
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			p := New(2, func() {})
			defer p.Close()
			p.Run(2) // start the workers
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				p.Run(k)
			}
		})
	}
}

func TestEmissionBufferRecordReplayReset(t *testing.T) {
	var b EmissionBuffer
	scratch := []graph.VertexID{1, 2, 3}
	b.Record(true, scratch)
	scratch[0] = 99 // engine reuses its mapping slice; the buffer must have copied
	b.Record(false, scratch)
	b.EndSegment()
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	type em struct {
		pos bool
		m   []graph.VertexID
	}
	var got []em
	collect := func(p bool, m []graph.VertexID) {
		got = append(got, em{p, append([]graph.VertexID(nil), m...)})
	}
	b.ReplaySegment(0, collect)
	if len(got) != 2 || !got[0].pos || got[1].pos {
		t.Fatalf("replay signs wrong: %+v", got)
	}
	if !slices.Equal(got[0].m, []graph.VertexID{1, 2, 3}) {
		t.Fatalf("first mapping not copied at record time: %v", got[0].m)
	}
	if !slices.Equal(got[1].m, []graph.VertexID{99, 2, 3}) {
		t.Fatalf("second mapping wrong: %v", got[1].m)
	}

	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", b.Len())
	}
	// Storage is recycled, also for a query of another size.
	kept := cap(b.maps)
	b.Record(true, []graph.VertexID{7})
	b.EndSegment()
	if cap(b.maps) != kept {
		t.Fatalf("recording after Reset regrew the arena: cap %d, was %d", cap(b.maps), kept)
	}
	got = got[:0]
	b.ReplaySegment(0, collect)
	if len(got) != 1 || !got[0].pos || !slices.Equal(got[0].m, []graph.VertexID{7}) {
		t.Fatalf("replay after reset delivered %+v, want one +[7]", got)
	}
}

// TestEmissionBufferSegments replays a window's emissions update by
// update: segments of several, one and no emissions come back in record
// order under their own index, and the mapping handed to fn cannot be
// appended into its neighbour.
func TestEmissionBufferSegments(t *testing.T) {
	var b EmissionBuffer
	want := [][]graph.VertexID{{1, 2}, {3, 4}, {5, 6}}
	b.Record(true, want[0])
	b.Record(false, want[1])
	b.EndSegment() // segment 0: two emissions
	b.EndSegment() // segment 1: none
	b.Record(true, want[2])
	b.EndSegment() // segment 2: one
	var got []string
	for k := 0; k < 3; k++ {
		b.ReplaySegment(k, func(p bool, m []graph.VertexID) {
			got = append(got, fmt.Sprint(k, p, m))
			_ = append(m, 0) // must reallocate, not overwrite the next mapping
		})
	}
	if fmt.Sprint(got) != "[0 true [1 2] 0 false [3 4] 2 true [5 6]]" {
		t.Fatalf("segment replay = %v", got)
	}
	b.Reset()
	b.EndSegment()
	b.ReplaySegment(0, func(bool, []graph.VertexID) { t.Fatal("emission survived Reset") })
}

// TestEmissionBufferResetReleasesHighWater pins the retention bound: an
// arena within emissionKeep is kept whatever the windows emit; a larger one
// is kept while the windows keep filling a quarter of it now and then (a
// query that emits that much per batch must not regrow it per batch) and
// released by the emissionIdle-th ordinary window in a row.
func TestEmissionBufferResetReleasesHighWater(t *testing.T) {
	var b EmissionBuffer
	window := emissionWindow(&b)
	window(emissionKeep / 2)
	for i := 0; i < 2*emissionIdle; i++ {
		window(8)
	}
	if cap(b.maps) == 0 {
		t.Fatal("Reset dropped an arena within the bound")
	}
	window(4 * emissionKeep) // explosive
	big := cap(b.maps)
	if big < 4*emissionKeep {
		t.Fatalf("Reset dropped the arena of the window that filled it (cap %d)", big)
	}
	window(2 * emissionKeep) // still a quarter of it: the working set stays
	for i := 1; i < emissionIdle; i++ {
		window(8) // ordinary windows, one short of the bound
	}
	window(2 * emissionKeep) // a quarter again: the count starts over
	for i := 1; i < emissionIdle; i++ {
		window(8)
	}
	if cap(b.maps) != big {
		t.Fatalf("%d ordinary windows in a row changed the arena: cap %d, was %d", emissionIdle-1, cap(b.maps), big)
	}
	window(8) // the emissionIdle-th in a row: the high-water mark goes
	if cap(b.maps) != 0 || cap(b.positive) != 0 {
		t.Fatalf("Reset kept %d vertex IDs after %d ordinary windows, bound is %d", cap(b.maps), emissionIdle, emissionKeep)
	}
}

// TestEmissionBufferAlternatingAllocs: large windows among small ones —
// a batch split into windows at every vertex it creates — reuse the
// arena the first large window grew instead of regrowing it after every
// small one.
func TestEmissionBufferAlternatingAllocs(t *testing.T) {
	var b EmissionBuffer
	window := emissionWindow(&b)
	pair := func() {
		window(4 * emissionKeep)
		window(8)
	}
	pair() // warm-up: grow the arena
	if avg := testing.AllocsPerRun(50, pair); avg != 0 {
		t.Fatalf("%.2f allocations per large/small window pair, want 0", avg)
	}
}

// emissionWindow returns a function that records one window of the given
// number of vertex IDs (in mappings of 8) into b and resets b.
func emissionWindow(b *EmissionBuffer) func(vertexIDs int) {
	m := make([]graph.VertexID, 8)
	return func(vertexIDs int) {
		for i := 0; i < vertexIDs/len(m); i++ {
			b.Record(true, m)
		}
		b.EndSegment()
		b.Reset()
	}
}
