package server

import (
	"bytes"
	"math"
	"testing"

	"turboflux"
	"turboflux/internal/graph"
	"turboflux/internal/qlang"
	"turboflux/internal/workload"
)

// TestIDMemoRendersReference holds the actor's memo of rendered ids to the
// stateless renderer: the digit-count edges, the largest id the engine
// accepts and the largest the codecs carry, and two ids that share an
// entry, rendered alternately so each keeps evicting the other.
func TestIDMemoRendersReference(t *testing.T) {
	var memo idMemo
	edges := []graph.VertexID{0, 9, 10, 99, 100, 999_999_999, 1_000_000_000, graph.MaxVertexID, math.MaxUint32}
	a, b := graph.VertexID(5), graph.VertexID(5+idMemoSize)
	mappings := [][]graph.VertexID{nil, edges, {a}, {b}, {a, b, a}, {b, a, b}, {0, 0}, {math.MaxUint32, math.MaxUint32 % idMemoSize}}
	for round := 0; round < 3; round++ {
		for _, m := range mappings {
			for _, positive := range []bool{true, false} {
				prefix := []byte("*EVENT q 1 ")
				want := appendEventBody(bytes.Clone(prefix), positive, m)
				got := memo.appendBody(bytes.Clone(prefix), positive, m)
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d, %v: memo rendered %q, want %q", round, m, got, want)
				}
			}
		}
	}
}

// emitPattern is one of the serve-emit workload's emitting 5-vertex tree
// queries, over LSBench's numeric labels.
const emitPattern = "(v0:3),(v1:6),(v2:6),(v3:6),(v4:1),(v0)-[:11]->(v1),(v0)-[:11]->(v2),(v0)-[:11]->(v3),(v4)-[:10]->(v1)"

// BenchmarkEmitRender measures the actor's per-match step alone: render,
// burst and hand-over to one subscriber's outbox. The matches emitPattern
// reports over an LSBench stream prefix are recorded once, then fed through
// emit update by update, so the ids carry the stream's locality. One op is
// one match.
func BenchmarkEmitRender(b *testing.B) {
	ds := workload.LSBench(workload.LSBenchConfig{Users: 2000, StreamFraction: 0.5, DeletionRate: 0.1, Seed: 7})
	q, _, err := qlang.Parse(emitPattern, graph.NumericDict(), graph.NumericDict())
	if err != nil {
		b.Fatal(err)
	}
	var ids []graph.VertexID // the matches' mappings, back to back
	var signs []bool
	var ends []int // match count at the end of each update that had matches
	eng := turboflux.NewMultiEngine(ds.Graph)
	if err := eng.Register("q", q, turboflux.Options{OnMatch: func(positive bool, m []graph.VertexID) {
		ids = append(ids, m...)
		signs = append(signs, positive)
	}}); err != nil {
		b.Fatal(err)
	}
	burst, prev := 0, 0 // the most matches of one update; matches so far
	for _, u := range ds.Stream {
		if _, err := eng.Apply(u); err != nil {
			b.Fatal(err)
		}
		if n := len(signs); n > prev {
			burst, prev = max(burst, n-prev), n
			ends = append(ends, n)
		}
		if prev >= 200_000 {
			break
		}
	}
	eng.Close() //tf:unchecked-ok pool release never fails
	if len(ends) == 0 {
		b.Fatal("the query reported no match over the stream")
	}
	width := len(ids) / len(signs)

	a := newActor(turboflux.NewMultiEngine(turboflux.NewGraph()),
		graph.NumericDict(), graph.NumericDict(), PolicyBlock, burst)
	a.front = NewFront("server", a)
	defer a.eng.Close() //tf:unchecked-ok pool release never fails
	ob := newOutbox()
	if _, err := a.handle(request{kind: reqRegister, name: "q", arg: emitPattern}); err != nil {
		b.Fatal(err)
	}
	if _, err := a.handle(request{kind: reqSubscribe, name: "q", sub: newSubscriber("q", 1, burst, ob)}); err != nil {
		b.Fatal(err)
	}
	l := a.subs["q"]
	var spare []byte
	k, u := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		a.emit(l, signs[k], ids[k*width:(k+1)*width])
		if k++; k == ends[u] {
			a.flushBurst()
			a.wakeWriters()
			a.seq++
			spare, _ = ob.take(spare)
			if u++; u == len(ends) {
				k, u = 0, 0
			}
		}
	}
}
