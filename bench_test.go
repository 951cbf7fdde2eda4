// Benchmarks mirroring every table and figure of the paper's evaluation
// (DESIGN.md §5 maps each BenchmarkFigN to its paper artifact). These are
// the testing.B counterparts of cmd/turboflux-bench: scaled down further
// so the whole suite runs in minutes on one core, while preserving the
// comparative shape (who wins, how gaps grow). The full sweeps — all
// rates, scatter plots, larger scale — live in the harness CLI.
package turboflux_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"turboflux/internal/csm"
	"turboflux/internal/harness"
	"turboflux/internal/query"
	"turboflux/internal/stats"
	"turboflux/internal/workload"
)

const (
	benchUsers     = 250
	benchQueries   = 2
	benchTimeout   = 2 * time.Second
	benchSizeCap   = 1 << 26
	benchWork      = 2_000_000
	benchSeed      = 1
	benchNFHosts   = 800
	benchNFTriples = 12000
)

var (
	benchMu    sync.Mutex
	benchLSDS  *workload.Dataset
	benchNFDS  *workload.Dataset
	benchQSets = map[string][]*query.Graph{}
)

func benchRC() harness.RunConfig {
	return harness.RunConfig{
		Timeout: benchTimeout,
		Engine:  csm.Options{WorkBudget: benchWork, SizeCap: benchSizeCap},
	}
}

func lsDataset() *workload.Dataset {
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchLSDS == nil {
		benchLSDS = workload.LSBench(workload.LSBenchConfig{
			Users: benchUsers, StreamFraction: 0.1, Seed: benchSeed,
		})
	}
	return benchLSDS
}

func nfDataset() *workload.Dataset {
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchNFDS == nil {
		benchNFDS = workload.Netflow(workload.NetflowConfig{
			Hosts: benchNFHosts, Triples: benchNFTriples, StreamFraction: 0.1, Seed: benchSeed,
		})
	}
	return benchNFDS
}

// querySet caches a filtered query set per (dataset, shape, size).
func querySet(ds *workload.Dataset, shape string, size int, seed int64) []*query.Graph {
	key := fmt.Sprintf("%s/%s/%d/%d", ds.Name, shape, size, seed)
	benchMu.Lock()
	qs, ok := benchQSets[key]
	benchMu.Unlock()
	if ok {
		return qs
	}
	var cands []*query.Graph
	switch shape {
	case "tree":
		cands = ds.TreeQueries(benchQueries*3, size, seed)
	case "cyclic":
		cands = ds.CyclicQueries(benchQueries*3, size, seed)
	case "path":
		cands = ds.PathQueries(benchQueries*3, size, seed)
	case "btree":
		cands = ds.BinaryTreeQueries(benchQueries*3, size, seed)
	}
	// Keep queries that produce matches and finish under the budget.
	rc := benchRC()
	for _, q := range cands {
		r := harness.RunQuery(harness.TurboFlux, ds, q, rc)
		if !r.TimedOut && r.Matches > 0 {
			qs = append(qs, q)
		}
		if len(qs) == benchQueries {
			break
		}
	}
	if len(qs) == 0 && len(cands) > 0 {
		qs = cands[:1] // fall back so censored rows still measure censoring
	}
	benchMu.Lock()
	benchQSets[key] = qs
	benchMu.Unlock()
	return qs
}

// replayBench measures one engine replaying the stream over a query set.
func replayBench(b *testing.B, kind harness.Kind, ds *workload.Dataset, qs []*query.Graph, rc harness.RunConfig) {
	b.Helper()
	if len(qs) == 0 {
		b.Skip("no usable queries generated")
	}
	var matches, timeouts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			r := harness.RunQuery(kind, ds, q, rc)
			matches += r.Matches
			if r.TimedOut {
				timeouts++
			}
		}
	}
	b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
	b.ReportMetric(float64(timeouts)/float64(b.N), "timeouts/op")
}

var benchEngines = []harness.Kind{harness.TurboFlux, harness.SJTree, harness.Graphflow}

// BenchmarkFig3Tradeoff: Figure 3 — cost/storage trade-off on tree-q6.
func BenchmarkFig3Tradeoff(b *testing.B) {
	ds := lsDataset()
	qs := querySet(ds, "tree", 6, benchSeed+60)
	for _, k := range benchEngines {
		b.Run(k.String(), func(b *testing.B) {
			replayBench(b, k, ds, qs, benchRC())
		})
	}
}

// BenchmarkFig6TreeQueries: Figure 6 — LSBench tree queries by size.
func BenchmarkFig6TreeQueries(b *testing.B) {
	ds := lsDataset()
	for _, size := range []int{3, 6, 9, 12} {
		qs := querySet(ds, "tree", size, benchSeed+int64(size))
		for _, k := range benchEngines {
			b.Run(fmt.Sprintf("size=%d/%s", size, k), func(b *testing.B) {
				replayBench(b, k, ds, qs, benchRC())
			})
		}
	}
}

// BenchmarkFig7GraphQueries: Figure 7 — LSBench cyclic queries by size.
func BenchmarkFig7GraphQueries(b *testing.B) {
	ds := lsDataset()
	for _, size := range []int{6, 9, 12} {
		qs := querySet(ds, "cyclic", size, benchSeed+100+int64(size))
		for _, k := range benchEngines {
			b.Run(fmt.Sprintf("size=%d/%s", size, k), func(b *testing.B) {
				replayBench(b, k, ds, qs, benchRC())
			})
		}
	}
}

// BenchmarkFig8InsertionRate: Figure 8 — cost as the stream share grows.
func BenchmarkFig8InsertionRate(b *testing.B) {
	for _, rate := range []int{2, 6, 10} {
		ds := workload.LSBench(workload.LSBenchConfig{
			Users: benchUsers, StreamFraction: float64(rate) / 100, Seed: benchSeed,
		})
		qs := querySet(ds, "tree", 6, benchSeed+200)
		for _, k := range benchEngines {
			b.Run(fmt.Sprintf("rate=%d%%/%s", rate, k), func(b *testing.B) {
				replayBench(b, k, ds, qs, benchRC())
			})
		}
	}
}

// BenchmarkFig9DatasetSize: Figure 9 — fixed stream, growing initial
// graph. Graphflow degrades with |g0| while TurboFlux and SJ-Tree stay
// flat (they maintain intermediate results).
func BenchmarkFig9DatasetSize(b *testing.B) {
	streamLen := -1
	for _, mult := range []int{1, 4} {
		ds := workload.LSBench(workload.LSBenchConfig{
			Users: benchUsers * mult, StreamFraction: 0.1, Seed: benchSeed,
		})
		if streamLen < 0 {
			streamLen = len(ds.Stream)
		}
		rc := benchRC()
		if len(ds.Stream) > streamLen {
			rc.Stream = ds.Stream[:streamLen]
		}
		qs := querySet(ds, "tree", 6, benchSeed+300)
		for _, k := range benchEngines {
			b.Run(fmt.Sprintf("scale=%dx/%s", mult, k), func(b *testing.B) {
				replayBench(b, k, ds, qs, rc)
			})
		}
	}
}

// BenchmarkFig10Isomorphism: Figure 10 — subgraph isomorphism semantics.
func BenchmarkFig10Isomorphism(b *testing.B) {
	ds := lsDataset()
	rc := benchRC()
	rc.Engine.Injective = true
	for _, set := range []struct {
		name string
		qs   []*query.Graph
	}{
		{"tree6", querySet(ds, "tree", 6, benchSeed+400)},
		{"graph6", querySet(ds, "cyclic", 6, benchSeed+410)},
	} {
		for _, k := range benchEngines {
			b.Run(fmt.Sprintf("%s/%s", set.name, k), func(b *testing.B) {
				replayBench(b, k, ds, set.qs, rc)
			})
		}
	}
}

// BenchmarkFig11DeletionRate: Figure 11 — deletions in the stream.
// SJ-Tree is excluded (no deletion support).
func BenchmarkFig11DeletionRate(b *testing.B) {
	for _, rate := range []int{2, 10} {
		ds := workload.LSBench(workload.LSBenchConfig{
			Users: benchUsers, StreamFraction: 0.06,
			DeletionRate: float64(rate) / 100, Seed: benchSeed,
		})
		qs := querySet(ds, "tree", 6, benchSeed+500)
		for _, k := range []harness.Kind{harness.TurboFlux, harness.Graphflow} {
			b.Run(fmt.Sprintf("rate=%d%%/%s", rate, k), func(b *testing.B) {
				replayBench(b, k, ds, qs, benchRC())
			})
		}
	}
}

// BenchmarkFig12IncIsoMat: Figure 12 — repeated-search baseline on a short
// insert stream.
func BenchmarkFig12IncIsoMat(b *testing.B) {
	ds := lsDataset()
	qs := querySet(ds, "tree", 6, benchSeed+600)
	rc := benchRC()
	if len(ds.Stream) > 100 {
		rc.Stream = ds.Stream[:100]
	}
	for _, k := range []harness.Kind{harness.TurboFlux, harness.IncIsoMat} {
		b.Run(k.String(), func(b *testing.B) {
			replayBench(b, k, ds, qs, rc)
		})
	}
}

// BenchmarkFig13NetflowTree: Figure 13 — label-poor Netflow tree queries.
func BenchmarkFig13NetflowTree(b *testing.B) {
	ds := nfDataset()
	for _, size := range []int{3, 6} {
		qs := querySet(ds, "tree", size, benchSeed+700+int64(size))
		for _, k := range benchEngines {
			b.Run(fmt.Sprintf("size=%d/%s", size, k), func(b *testing.B) {
				replayBench(b, k, ds, qs, benchRC())
			})
		}
	}
}

// BenchmarkFig14NetflowGraph: Figure 14 — Netflow cyclic queries.
func BenchmarkFig14NetflowGraph(b *testing.B) {
	ds := nfDataset()
	qs := querySet(ds, "cyclic", 6, benchSeed+806)
	for _, k := range benchEngines {
		b.Run(k.String(), func(b *testing.B) {
			replayBench(b, k, ds, qs, benchRC())
		})
	}
}

// BenchmarkFig15NetflowPath: Figure 15 — path queries of [7].
func BenchmarkFig15NetflowPath(b *testing.B) {
	ds := nfDataset()
	for _, size := range []int{3, 5} {
		qs := querySet(ds, "path", size, benchSeed+900+int64(size))
		for _, k := range benchEngines {
			b.Run(fmt.Sprintf("size=%d/%s", size, k), func(b *testing.B) {
				replayBench(b, k, ds, qs, benchRC())
			})
		}
	}
}

// BenchmarkFig16NetflowBTree: Figure 16 — binary-tree queries of [7].
func BenchmarkFig16NetflowBTree(b *testing.B) {
	ds := nfDataset()
	for _, size := range []int{4, 8} {
		qs := querySet(ds, "btree", size, benchSeed+950+int64(size))
		for _, k := range benchEngines {
			b.Run(fmt.Sprintf("size=%d/%s", size, k), func(b *testing.B) {
				replayBench(b, k, ds, qs, benchRC())
			})
		}
	}
}

// BenchmarkFig17Selectivity: Figure 17 — the selectivity histogram is a
// by-product of TurboFlux replays; this benchmarks the measurement pass.
func BenchmarkFig17Selectivity(b *testing.B) {
	ds := lsDataset()
	qs := querySet(ds, "tree", 6, benchSeed+60)
	if len(qs) == 0 {
		b.Skip("no usable queries")
	}
	rc := benchRC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := stats.NewSelectivityHistogram()
		for _, q := range qs {
			r := harness.RunQuery(harness.TurboFlux, ds, q, rc)
			if !r.TimedOut {
				h.Observe(r.Matches)
			}
		}
		if h.Total() == 0 {
			b.Fatal("histogram empty")
		}
	}
}

// BenchmarkNECCompression: Appendix B.5 — SJ-Tree on NEC-compressed
// queries vs originals.
func BenchmarkNECCompression(b *testing.B) {
	ds := lsDataset()
	qs := querySet(ds, "tree", 6, benchSeed+60)
	var orig, comp []*query.Graph
	for _, q := range qs {
		if cq, ok := query.NECCompress(q); ok {
			orig = append(orig, q)
			comp = append(comp, cq)
		}
	}
	if len(orig) == 0 {
		b.Skip("no NEC-compressible queries in the set")
	}
	b.Run("original", func(b *testing.B) {
		replayBench(b, harness.SJTree, ds, orig, benchRC())
	})
	b.Run("compressed", func(b *testing.B) {
		replayBench(b, harness.SJTree, ds, comp, benchRC())
	})
}
