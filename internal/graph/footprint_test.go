package graph_test

import (
	"runtime"
	"testing"

	"turboflux/internal/graph"
	"turboflux/internal/stream"
	"turboflux/internal/workload"
)

// heapStats returns the live heap and its object count after a full
// collection.
func heapStats() (bytes, objects uint64) {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's sweeps released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc, m.HeapObjects
}

// buildGraph replays ds's initial graph and the first n stream updates
// into a fresh graph, the way a server builds its own.
func buildGraph(ds *workload.Dataset, n int) *graph.Graph {
	g := graph.New()
	ds.Graph.ForEachVertex(func(v graph.VertexID) { g.EnsureVertex(v, ds.Graph.Labels(v)...) })
	ds.Graph.ForEachEdge(func(e graph.Edge) { g.InsertEdge(e.From, e.Label, e.To) })
	stream.ApplyAll(g, ds.Stream[:n])
	return g
}

// TestGraphFootprint guards what the data graph costs the process, and
// that HeldBytes is that cost rather than an accounting of its own: over
// an LSBench fixture (4000 users, 85 % of the triples streamed with half
// as many deletions as insertions, so lists and buckets churn), HeldBytes
// must agree to within 15 % with the heap the graph adds,
// hold at most 28 B per vertex ID (the 20 B record, the table's growth
// slack and the per-label vertex index) plus 24 B per live edge (each
// edge is stored on both sides), and the graph must be a handful of heap
// objects however large it grows: the collector has nothing to trace.
//
// The slice-of-slices layout it replaced — a 64 B record, a bucket array
// per vertex and direction, a heap slice per neighbor list — held
// 1.27 M objects at the serve-maintain benchmark's memory mark, where
// this one holds about a hundred.
func TestGraphFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("replays an LSBench stream twice")
	}
	ds := workload.LSBench(workload.LSBenchConfig{Users: 4000, StreamFraction: 0.85, DeletionRate: 0.5, Seed: 1})
	n := len(ds.Stream)
	base, baseObjs := heapStats()

	small := buildGraph(ds, n/4)
	_, smallObjs := heapStats()
	runtime.KeepAlive(small)
	small = nil

	g := buildGraph(ds, n)
	withG, fullObjs := heapStats()
	held := g.HeldBytes()
	ids, edges := 0, g.NumEdges()
	g.ForEachVertex(func(v graph.VertexID) { ids = max(ids, int(v)+1) })
	g = nil
	graphHeap := int64(withG) - int64(base)
	runtime.KeepAlive(ds)

	t.Logf("%d IDs, %d edges: HeldBytes %d (%.1f B/ID, %.1f B/edge), heap %d; heap objects %d for the quarter stream, %d for the whole",
		ids, edges, held, float64(held)/float64(ids), float64(held)/float64(edges), graphHeap, smallObjs-baseObjs, fullObjs-baseObjs)
	if edges < 50_000 {
		t.Fatalf("fixture holds %d edges, too few to measure a per-edge cost", edges)
	}
	if held > 28*int64(ids)+24*int64(edges) {
		t.Errorf("HeldBytes %d over %d IDs and %d edges exceeds 28 B/ID + 24 B/edge", held, ids, edges)
	}
	if diff := held - graphHeap; diff > graphHeap*15/100 || -diff > graphHeap*15/100 {
		t.Errorf("HeldBytes %d is not within 15 %% of the heap the graph holds, %d", held, graphHeap)
	}
	if fullObjs-baseObjs > 256 || fullObjs > smallObjs+32 {
		t.Errorf("the graph holds %d heap objects, %d at a quarter of the stream: objects grow with the graph", fullObjs-baseObjs, smallObjs-baseObjs)
	}
}
