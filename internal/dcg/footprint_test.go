package dcg_test

import (
	"runtime"
	"strconv"
	"testing"

	"turboflux/internal/core"
	"turboflux/internal/dcg"
	"turboflux/internal/graph"
	"turboflux/internal/qlang"
	"turboflux/internal/stream"
	"turboflux/internal/workload"
)

// maintainPatterns is the frozen query set of the benchmark's
// serve-maintain workload (bench/workloads.go; bench/ is a module of its
// own, so the strings are copied): 16 low-match size-4 tree queries, no two
// sharing a spanning tree, so every one keeps a private DCG.
var maintainPatterns = []string{
	"(v0:6),(v1:3),(v2:1),(v3:0),(v4:0),(v1)-[:11]->(v0),(v2)-[:10]->(v0),(v1)-[:17]->(v3),(v1)-[:17]->(v4)",
	"(v0:4),(v1:0),(v2:0),(v3:3),(v4:2),(v1)-[:7]->(v0),(v2)-[:7]->(v0),(v0)-[:6]->(v3),(v2)-[:4]->(v4)",
	"(v0:5),(v1:0),(v2:0),(v3:3),(v4:4),(v1)-[:8]->(v0),(v1)-[:1]->(v2),(v3)-[:13]->(v2),(v4)-[:6]->(v3)",
	"(v0:1),(v1:5),(v2:6),(v3:2),(v4:1),(v1)-[:9]->(v0),(v0)-[:10]->(v2),(v3)-[:5]->(v0),(v3)-[:5]->(v4)",
	"(v0:0),(v1:3),(v2:0),(v3:3),(v4:6),(v1)-[:13]->(v0),(v1)-[:13]->(v2),(v3)-[:13]->(v2),(v3)-[:11]->(v4)",
	"(v0:1),(v1:0),(v2:2),(v3:0),(v4:3),(v1)-[:2]->(v0),(v2)-[:12]->(v1),(v3)-[:3]->(v0),(v4)-[:17]->(v3)",
	"(v0:2),(v1:0),(v2:0),(v3:0),(v4:0),(v1)-[:4]->(v0),(v2)-[:4]->(v0),(v3)-[:4]->(v0),(v0)-[:12]->(v4)",
	"(v0:5),(v1:0),(v2:0),(v3:0),(v4:2),(v1)-[:14]->(v0),(v2)-[:14]->(v0),(v3)-[:8]->(v0),(v3)-[:4]->(v4)",
	"(v0:4),(v1:3),(v2:0),(v3:0),(v4:3),(v0)-[:6]->(v1),(v1)-[:13]->(v2),(v1)-[:13]->(v3),(v0)-[:6]->(v4)",
	"(v0:0),(v1:5),(v2:1),(v3:6),(v4:0),(v0)-[:14]->(v1),(v1)-[:9]->(v2),(v2)-[:10]->(v3),(v4)-[:14]->(v1)",
	"(v0:5),(v1:0),(v2:0),(v3:1),(v4:2),(v1)-[:14]->(v0),(v2)-[:14]->(v0),(v0)-[:9]->(v3),(v4)-[:5]->(v3)",
	"(v0:0),(v1:4),(v2:0),(v3:0),(v4:4),(v0)-[:7]->(v1),(v2)-[:7]->(v1),(v3)-[:7]->(v1),(v2)-[:7]->(v4)",
	"(v0:5),(v1:1),(v2:0),(v3:0),(v4:3),(v0)-[:9]->(v1),(v2)-[:8]->(v0),(v3)-[:3]->(v1),(v4)-[:17]->(v2)",
	"(v0:4),(v1:3),(v2:0),(v3:3),(v4:0),(v0)-[:6]->(v1),(v1)-[:13]->(v2),(v0)-[:6]->(v3),(v4)-[:7]->(v0)",
	"(v0:1),(v1:5),(v2:1),(v3:2),(v4:0),(v1)-[:9]->(v0),(v2)-[:15]->(v1),(v3)-[:5]->(v2),(v4)-[:14]->(v1)",
	"(v0:5),(v1:0),(v2:0),(v3:1),(v4:0),(v1)-[:8]->(v0),(v2)-[:14]->(v0),(v3)-[:15]->(v0),(v1)-[:0]->(v4)",
}

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers and sweeps released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// buildMaintainDCGs runs the 16 patterns as private engines over one
// graph through the first n stream updates and returns their DCGs and the
// graph they read vertex labels from: engines and search state become
// garbage on return. The transitions an engine makes do not depend on how
// updates are batched (the transcript-equivalence suites pin that), so
// update by update builds the DCGs a batch-256 server holds.
func buildMaintainDCGs(t *testing.T, ds *workload.Dataset, n int) ([]*dcg.DCG, *graph.Graph) {
	t.Helper()
	dict := graph.NewDict()
	for i := 0; i < 256; i++ {
		dict.Intern(strconv.Itoa(i)) // label i is named "i", as under -numeric-labels
	}
	g := ds.Graph.Clone()
	var engines []*core.Engine
	for i, p := range maintainPatterns {
		q, _, err := qlang.Parse(p, dict, dict)
		if err != nil {
			t.Fatalf("pattern %d: %v", i, err)
		}
		e, err := core.New(g, q, core.DefaultOptions())
		if err != nil {
			t.Fatalf("pattern %d: %v", i, err)
		}
		engines = append(engines, e)
	}
	declare := func(v graph.VertexID, labels []graph.Label) {
		if g.HasVertex(v) {
			return
		}
		g.EnsureVertex(v, labels...)
		for _, e := range engines {
			e.NotifyVertexAdded(v)
		}
	}
	for _, u := range ds.Stream[:n] {
		ed := u.Edge
		switch u.Op {
		case stream.OpVertex:
			declare(u.Vertex, u.Labels)
		case stream.OpInsert:
			declare(ed.From, nil)
			declare(ed.To, nil)
			if !g.InsertEdge(ed.From, ed.Label, ed.To) {
				continue
			}
			for _, e := range engines {
				if _, err := e.EvalInsertedEdge(ed.From, ed.Label, ed.To); err != nil {
					t.Fatal(err)
				}
			}
		case stream.OpDelete:
			if !g.HasEdge(ed.From, ed.Label, ed.To) {
				continue
			}
			for _, e := range engines {
				if _, err := e.EvalBeforeDelete(ed.From, ed.Label, ed.To); err != nil {
					t.Fatal(err)
				}
			}
			g.DeleteEdge(ed.From, ed.Label, ed.To)
		}
	}
	ds2 := make([]*dcg.DCG, len(engines))
	for i, e := range engines {
		ds2[i] = e.DCG()
	}
	return ds2, g
}

// TestFootprint guards what a stored DCG edge costs the process, and that
// HeldBytes is that cost rather than an accounting of its own: the DCGs of
// the serve-maintain query set over 60 000 LSBench updates (half as many
// deletions as insertions, so lists and blocks churn) must hold at most
// 60 B per stored edge, and HeldBytes must agree to within 15 % with what
// the heap frees when the DCGs go and the graph stays.
//
// For the same 95 508 edges, the slice-of-slices layout (a node of two
// per-label header arrays per slot, every list its own heap object) grew
// the heap by 32 965 856 B, 345 B per edge; flat cell tables of 2 × nq
// cells per slot held 11 486 464 B, 120.3 B per edge; label-sized blocks
// held 6 568 920 B, 68.8 B per edge, with a dense slot table over every
// vertex ID; a slot table paged by 1024 IDs holds 5 082 760 B, 53.2 B per
// edge.
func TestFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 16 DCGs over 60 000 updates")
	}
	const updates = 60_000
	ds := workload.LSBench(workload.LSBenchConfig{Users: 4000, StreamFraction: 0.85, DeletionRate: 0.5, Seed: 1})
	if len(ds.Stream) < updates {
		t.Fatalf("stream has %d updates, want %d", len(ds.Stream), updates)
	}
	dcgs, g := buildMaintainDCGs(t, ds, updates)
	withDCGs := heapAlloc()

	var held, edges int64
	for _, d := range dcgs {
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		held += d.HeldBytes()
		edges += int64(d.NumEdges())
	}
	n := len(dcgs)
	dcgs = nil
	dcgHeap := int64(withDCGs) - int64(heapAlloc())
	runtime.KeepAlive(g)
	runtime.KeepAlive(ds)
	t.Logf("%d DCGs, %d edges: HeldBytes %d (%.1f B/edge), heap held %d (%.1f B/edge), SizeBytes %d",
		n, edges, held, float64(held)/float64(edges), dcgHeap, float64(dcgHeap)/float64(edges), edges*dcg.EdgeBytes)
	if edges < 50_000 {
		t.Fatalf("fixture stores %d edges, too few to measure a per-edge cost", edges)
	}
	if held > 60*edges {
		t.Errorf("HeldBytes/NumEdges = %.1f B, want <= 60", float64(held)/float64(edges))
	}
	if diff := held - dcgHeap; diff > dcgHeap*15/100 || -diff > dcgHeap*15/100 {
		t.Errorf("HeldBytes %d is not within 15 %% of the heap the DCGs hold, %d", held, dcgHeap)
	}
}
