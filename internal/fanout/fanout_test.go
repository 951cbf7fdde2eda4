package fanout

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"turboflux/internal/graph"
)

func TestPoolRunsAllTasks(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		var n atomic.Int64
		for batch := 0; batch < 10; batch++ {
			tasks := make([]func(), 0, 7)
			for i := 0; i < 7; i++ {
				tasks = append(tasks, func() { n.Add(1) })
			}
			p.Run(tasks)
		}
		p.Close()
		if got := n.Load(); got != 70 {
			t.Fatalf("workers=%d: ran %d tasks, want 70", workers, got)
		}
	}
}

func TestPoolBarrier(t *testing.T) {
	// Every task's effect must be visible to the caller once Run returns.
	p := New(4)
	defer p.Close()
	out := make([]int, 16)
	for round := 0; round < 50; round++ {
		tasks := make([]func(), len(out))
		for i := range out {
			i := i
			tasks[i] = func() { out[i] = round + 1 }
		}
		p.Run(tasks)
		for i, v := range out {
			if v != round+1 {
				t.Fatalf("round %d: task %d effect not visible after barrier (got %d)", round, i, v)
			}
		}
	}
}

func TestPoolDefaultSize(t *testing.T) {
	if got, want := New(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("New(0).Workers() = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestPoolCloseIdempotentAndInlineAfter(t *testing.T) {
	p := New(4)
	ran := false
	p.Run([]func(){func() {}, func() {}}) // start workers
	p.Close()
	p.Close()
	p.Run([]func(){func() { ran = true }, func() {}})
	if !ran {
		t.Fatal("Run after Close did not execute tasks inline")
	}
}

func TestPoolNeverStartedClose(t *testing.T) {
	p := New(4)
	p.Close() // must not panic or leak
	var n int
	p.Run([]func(){func() { n++ }})
	if n != 1 {
		t.Fatalf("inline run after Close ran %d tasks, want 1", n)
	}
}

func TestPoolStats(t *testing.T) {
	p := New(2)
	defer p.Close()
	tasks := []func(){func() {}, func() {}, func() {}}
	p.Run(tasks)
	p.Run(tasks)
	s := p.Stats()
	if s.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", s.Workers)
	}
	if s.Batches != 2 {
		t.Fatalf("Batches = %d, want 2", s.Batches)
	}
	// One task per batch runs inline on the caller.
	if s.Pooled != 4 {
		t.Fatalf("Pooled = %d, want 4", s.Pooled)
	}
	var perWorker uint64
	for _, c := range s.PerWorker {
		perWorker += c
	}
	if perWorker != s.Pooled {
		t.Fatalf("sum(PerWorker) = %d, want Pooled = %d", perWorker, s.Pooled)
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
