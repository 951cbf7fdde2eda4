package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"turboflux/internal/query"
	"turboflux/internal/stats"
	"turboflux/internal/stream"
	"turboflux/internal/workload"
)

// Config scales the experiment suite. The defaults are laptop-scale
// miniatures of Table 1; every knob maps to a paper parameter.
type Config struct {
	Users         int           // LSBench scale factor (paper: 0.1M/1M/10M)
	Hosts         int           // Netflow hosts
	Triples       int           // Netflow triples
	QueriesPerSet int           // queries per (type, size) set (paper: 100)
	Timeout       time.Duration // per-query censoring (paper: 2h)
	SizeCap       int64         // per-query intermediate-size cap, bytes
	WorkBudget    int64         // per-update cap inside each engine (EngineOptions.WorkBudget)
	Seed          int64
	Scatter       bool // print per-query scatter rows (Figures 6c/d, 7c/d)
	Out           io.Writer
	// CSV, when non-nil, additionally records every experiment cell for
	// plotting; call CSV.Flush after Run.
	CSV *CSVSink
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig(out io.Writer) Config {
	return Config{
		Users:         1500,
		Hosts:         2500,
		Triples:       50000,
		QueriesPerSet: 8,
		Timeout:       5 * time.Second,
		SizeCap:       1 << 28,
		WorkBudget:    20_000_000,
		Seed:          1,
		Out:           out,
	}
}

// Experiments lists every experiment id accepted by Run.
func Experiments() []string {
	return []string{
		"fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "nec", "all",
	}
}

// Run executes one experiment by id (or "all").
func Run(exp string, cfg Config) error {
	if cfg.Out == nil {
		return fmt.Errorf("harness: nil output writer")
	}
	runs := map[string]func(Config){
		"fig3":  Fig3Tradeoff,
		"fig6":  Fig6TreeQueries,
		"fig7":  Fig7GraphQueries,
		"fig8":  Fig8InsertionRate,
		"fig9":  Fig9DatasetSize,
		"fig10": Fig10Isomorphism,
		"fig11": Fig11DeletionRate,
		"fig12": Fig12IncIsoMat,
		"fig13": Fig13NetflowTree,
		"fig14": Fig14NetflowGraph,
		"fig15": Fig15NetflowPath,
		"fig16": Fig16NetflowBTree,
		"fig17": Fig17Selectivity,
		"nec":   NECCompression,
	}
	if exp == "all" {
		for _, id := range Experiments() {
			if id == "all" {
				continue
			}
			runs[id](cfg)
		}
		return nil
	}
	f, ok := runs[exp]
	if !ok {
		return fmt.Errorf("harness: unknown experiment %q (known: %v)", exp, Experiments())
	}
	f(cfg)
	return nil
}

func (cfg Config) lsbench() *workload.Dataset {
	return workload.LSBench(workload.LSBenchConfig{
		Users: cfg.Users, StreamFraction: 0.1, Seed: cfg.Seed,
	})
}

func (cfg Config) netflow() *workload.Dataset {
	return workload.Netflow(workload.NetflowConfig{
		Hosts: cfg.Hosts, Triples: cfg.Triples, StreamFraction: 0.1, Seed: cfg.Seed,
	})
}

func (cfg Config) runCfg() RunConfig {
	return RunConfig{
		Timeout: cfg.Timeout,
		SizeCap: cfg.SizeCap,
		Engine: EngineOptions{
			WorkBudget: cfg.WorkBudget,
			TupleCap:   cfg.SizeCap / 32,
		},
	}
}

func banner(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

func speedupLine(w io.Writer, base Kind, sums map[Kind]*stats.Summary, others []Kind) {
	tf := sums[base]
	if tf == nil || len(tf.Costs) == 0 {
		return
	}
	for _, k := range others {
		s := sums[k]
		if s == nil || len(s.Costs) == 0 {
			fmt.Fprintf(w, "  %s vs %s: all %s queries censored\n", base, k, k)
			continue
		}
		fmt.Fprintf(w, "  %s vs %s: %.2fx faster", base, k, tf.Speedup(s))
		if len(tf.Sizes) > 0 && len(s.Sizes) > 0 && tf.MeanSize() > 0 {
			fmt.Fprintf(w, ", %.2fx smaller intermediate results",
				float64(s.MeanSize())/float64(tf.MeanSize()))
		}
		fmt.Fprintln(w)
	}
}

// selectQueries mirrors the paper's query-set post-processing: queries
// with no positive matches over the entire insertion stream are excluded
// (Section 5.1). Candidates are screened with a TurboFlux run; up to want
// surviving queries are returned.
func selectQueries(ds *workload.Dataset, cands []*query.Graph, want int, rc RunConfig) []*query.Graph {
	var out []*query.Graph
	for _, q := range cands {
		r := RunQuery(TurboFlux, ds, q, rc)
		if !r.TimedOut && r.Matches == 0 {
			continue
		}
		out = append(out, q)
		if len(out) == want {
			break
		}
	}
	return out
}

// treeSet generates a filtered tree query set.
func (cfg Config) treeSet(ds *workload.Dataset, size int, seed int64) []*query.Graph {
	cands := ds.TreeQueries(cfg.QueriesPerSet*3, size, seed)
	return selectQueries(ds, cands, cfg.QueriesPerSet, cfg.runCfg())
}

// cyclicSet generates a filtered cyclic query set.
func (cfg Config) cyclicSet(ds *workload.Dataset, size int, seed int64) []*query.Graph {
	cands := ds.CyclicQueries(cfg.QueriesPerSet*3, size, seed)
	return selectQueries(ds, cands, cfg.QueriesPerSet, cfg.runCfg())
}

// querySetSums runs every engine in kinds on the query set and returns the
// per-engine summaries.
func querySetSums(ds *workload.Dataset, qs []*query.Graph, kinds []Kind, rc RunConfig) map[Kind]*stats.Summary {
	out := make(map[Kind]*stats.Summary, len(kinds))
	for _, k := range kinds {
		out[k] = RunSet(k, ds, qs, rc)
	}
	return out
}

// Fig3Tradeoff prints the performance/storage trade-off summary of
// Figure 3: one row per engine on the default LSBench tree-q6 set.
func Fig3Tradeoff(cfg Config) {
	banner(cfg.Out, "Figure 3: performance vs storage trade-off (LSBench, tree q6)")
	ds := cfg.lsbench()
	qs := cfg.treeSet(ds, 6, cfg.Seed+60)
	rc := cfg.runCfg()
	// IncIsoMat is orders of magnitude slower: give it a truncated stream
	// so the row completes, and report per-op cost for comparability.
	short := rc
	if len(ds.Stream) > 200 {
		short.Stream = ds.Stream[:200]
	}
	fmt.Fprintf(cfg.Out, "%-12s %14s %14s %12s\n", "engine", "cost/op", "total", "intermediate")
	for _, k := range []Kind{TurboFlux, SJTree, Graphflow, IncIsoMat} {
		r := rc
		if k == IncIsoMat {
			r = short
		}
		s := RunSet(k, ds, qs, r)
		if len(s.Costs) == 0 {
			fmt.Fprintf(cfg.Out, "%-12s %14s %14s %12s\n", k, "timeout", "timeout", "-")
			continue
		}
		ops := len(r.Stream)
		if ops == 0 {
			ops = len(ds.Stream)
		}
		perOp := s.MeanCost() / time.Duration(ops)
		fmt.Fprintf(cfg.Out, "%-12s %14s %14s %12s\n",
			k, stats.FormatDuration(perOp), stats.FormatDuration(s.MeanCost()),
			stats.FormatBytes(s.MeanSize()))
	}
	// Per-update latency tail for TurboFlux (the means above hide it).
	if len(qs) > 0 {
		lat := rc
		lat.Latency = stats.NewLatency(0)
		RunQuery(TurboFlux, ds, qs[0], lat)
		fmt.Fprintf(cfg.Out, "TurboFlux per-update latency (first query): %s\n", lat.Latency)
	}
}

// Fig6TreeQueries reproduces Figure 6: LSBench tree queries of sizes
// 3/6/9/12 — (a) mean cost per engine, (b) mean intermediate size, and
// with cfg.Scatter the per-query scatter pairs of (c)/(d).
func Fig6TreeQueries(cfg Config) {
	banner(cfg.Out, "Figure 6: LSBench tree queries (a: cost, b: intermediate size)")
	ds := cfg.lsbench()
	kinds := []Kind{TurboFlux, SJTree, Graphflow}
	Header(cfg.Out, "query size", kinds, true)
	for _, size := range []int{3, 6, 9, 12} {
		qs := cfg.treeSet(ds, size, cfg.Seed+int64(size))
		sums := querySetSums(ds, qs, kinds, cfg.runCfg())
		Row(cfg.Out, fmt.Sprintf("tree-%d", size), sums, kinds, true)
		cfg.CSV.AddSummaries("fig6", fmt.Sprintf("tree-%d", size), sums, kinds)
		speedupLine(cfg.Out, TurboFlux, sums, []Kind{SJTree, Graphflow})
		if cfg.Scatter {
			scatterRows(cfg.Out, ds, qs, cfg.runCfg(), size)
		}
	}
}

// scatterRows prints per-query cost pairs, the data behind Figures 6c/d
// and 7c/d.
func scatterRows(w io.Writer, ds *workload.Dataset, qs []*query.Graph, rc RunConfig, size int) {
	fmt.Fprintf(w, "  scatter (size %d): query  TurboFlux  SJ-Tree  Graphflow\n", size)
	for i, q := range qs {
		tf := RunQuery(TurboFlux, ds, q, rc)
		sj := RunQuery(SJTree, ds, q, rc)
		gf := RunQuery(Graphflow, ds, q, rc)
		fmt.Fprintf(w, "    Q%02d %12s %12s %12s\n", i,
			cell(tf), cell(sj), cell(gf))
	}
}

func cell(r Result) string {
	if r.TimedOut {
		return "timeout"
	}
	return stats.FormatDuration(r.Cost)
}

// Fig7GraphQueries reproduces Figure 7: LSBench cyclic queries of sizes
// 6/9/12.
func Fig7GraphQueries(cfg Config) {
	banner(cfg.Out, "Figure 7: LSBench graph (cyclic) queries")
	ds := cfg.lsbench()
	kinds := []Kind{TurboFlux, SJTree, Graphflow}
	Header(cfg.Out, "query size", kinds, true)
	for _, size := range []int{6, 9, 12} {
		qs := cfg.cyclicSet(ds, size, cfg.Seed+100+int64(size))
		sums := querySetSums(ds, qs, kinds, cfg.runCfg())
		Row(cfg.Out, fmt.Sprintf("graph-%d", size), sums, kinds, true)
		cfg.CSV.AddSummaries("fig7", fmt.Sprintf("graph-%d", size), sums, kinds)
		speedupLine(cfg.Out, TurboFlux, sums, []Kind{SJTree, Graphflow})
		if cfg.Scatter {
			scatterRows(cfg.Out, ds, qs, cfg.runCfg(), size)
		}
	}
}

// Fig8InsertionRate reproduces Figure 8: tree-q6 cost while the insertion
// rate (stream share of all triples) grows from 2% to 10%.
func Fig8InsertionRate(cfg Config) {
	banner(cfg.Out, "Figure 8: varying insertion rate (LSBench, tree q6)")
	kinds := []Kind{TurboFlux, SJTree, Graphflow}
	Header(cfg.Out, "insert rate", kinds, true)
	for _, rate := range []int{2, 4, 6, 8, 10} {
		ds := workload.LSBench(workload.LSBenchConfig{
			Users: cfg.Users, StreamFraction: float64(rate) / 100, Seed: cfg.Seed,
		})
		qs := cfg.treeSet(ds, 6, cfg.Seed+200)
		sums := querySetSums(ds, qs, kinds, cfg.runCfg())
		Row(cfg.Out, fmt.Sprintf("%d%%", rate), sums, kinds, true)
		cfg.CSV.AddSummaries("fig8", fmt.Sprintf("%d%%", rate), sums, kinds)
	}
}

// Fig9DatasetSize reproduces Figure 9: fixed-size stream over initial
// graphs scaled 1x / 4x / 16x (the paper scales users 0.1M/1M/10M).
func Fig9DatasetSize(cfg Config) {
	banner(cfg.Out, "Figure 9: varying dataset size (fixed stream)")
	kinds := []Kind{TurboFlux, SJTree, Graphflow}
	Header(cfg.Out, "users", kinds, true)
	// The paper replays the same queries and stream size against every
	// initial-graph scale; select the query set once at 1x.
	base := workload.LSBench(workload.LSBenchConfig{
		Users: cfg.Users, StreamFraction: 0.1, Seed: cfg.Seed,
	})
	qs := cfg.treeSet(base, 6, cfg.Seed+300)
	streamLen := len(base.Stream)
	for _, mult := range []int{1, 4, 16} {
		ds := base
		if mult != 1 {
			ds = workload.LSBench(workload.LSBenchConfig{
				Users: cfg.Users * mult, StreamFraction: 0.1, Seed: cfg.Seed,
			})
		}
		rc := cfg.runCfg()
		if len(ds.Stream) > streamLen {
			rc.Stream = ds.Stream[:streamLen]
		}
		sums := querySetSums(ds, qs, kinds, rc)
		Row(cfg.Out, fmt.Sprintf("%dx", mult), sums, kinds, true)
		cfg.CSV.AddSummaries("fig9", fmt.Sprintf("%dx", mult), sums, kinds)
	}
}

// Fig10Isomorphism reproduces Figure 10 (Appendix B.1): subgraph
// isomorphism semantics on LSBench tree and graph queries.
func Fig10Isomorphism(cfg Config) {
	banner(cfg.Out, "Figure 10: subgraph isomorphism semantics (LSBench)")
	ds := cfg.lsbench()
	kinds := []Kind{TurboFlux, SJTree, Graphflow}
	rc := cfg.runCfg()
	rc.Engine.Injective = true
	Header(cfg.Out, "query set", kinds, false)
	for _, set := range []struct {
		label string
		qs    []*query.Graph
	}{
		{"tree-6", cfg.treeSet(ds, 6, cfg.Seed+400)},
		{"graph-6", cfg.cyclicSet(ds, 6, cfg.Seed+410)},
	} {
		sums := querySetSums(ds, set.qs, kinds, rc)
		Row(cfg.Out, set.label, sums, kinds, false)
		cfg.CSV.AddSummaries("fig10", set.label, sums, kinds)
		speedupLine(cfg.Out, TurboFlux, sums, []Kind{SJTree, Graphflow})
	}
}

// Fig11DeletionRate reproduces Figure 11 (Appendix B.2): insertion rate
// fixed at 6%, deletion rate (#deletions/#insertions) 2%–10%. SJ-Tree is
// excluded: it does not support deletion.
func Fig11DeletionRate(cfg Config) {
	banner(cfg.Out, "Figure 11: varying deletion rate (LSBench, tree q6; no SJ-Tree)")
	kinds := []Kind{TurboFlux, Graphflow}
	Header(cfg.Out, "delete rate", kinds, true)
	for _, rate := range []int{2, 4, 6, 8, 10} {
		ds := workload.LSBench(workload.LSBenchConfig{
			Users: cfg.Users, StreamFraction: 0.06,
			DeletionRate: float64(rate) / 100, Seed: cfg.Seed,
		})
		qs := cfg.treeSet(ds, 6, cfg.Seed+500)
		sums := querySetSums(ds, qs, kinds, cfg.runCfg())
		Row(cfg.Out, fmt.Sprintf("%d%%", rate), sums, kinds, true)
		cfg.CSV.AddSummaries("fig11", fmt.Sprintf("%d%%", rate), sums, kinds)
	}
}

// Fig12IncIsoMat reproduces Figure 12 (Appendix B.3): TurboFlux vs
// IncIsoMat on the cheapest and most expensive tree-q6 queries, over a
// short insert stream (a) and the same stream with 6% deletions (b).
func Fig12IncIsoMat(cfg Config) {
	banner(cfg.Out, "Figure 12: comparison with IncIsoMat (LSBench)")
	ds := cfg.lsbench()
	qs := cfg.treeSet(ds, 6, cfg.Seed+600)
	insertStream := prefixInserts(ds.Stream, 1000)
	rc := cfg.runCfg()
	rc.Stream = insertStream

	// Locate min- and max-cost queries on TurboFlux.
	type scored struct {
		q *query.Graph
		c time.Duration
	}
	var ss []scored
	for _, q := range qs {
		r := RunQuery(TurboFlux, ds, q, rc)
		if !r.TimedOut {
			ss = append(ss, scored{q, r.Cost})
		}
	}
	if len(ss) == 0 {
		fmt.Fprintln(cfg.Out, "  all queries censored")
		return
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].c < ss[j].c })
	sel := []scored{ss[0], ss[len(ss)-1]}

	delStream := withDeletions(insertStream, 6, cfg.Seed)
	for i, variant := range []struct {
		label  string
		stream []stream.Update
	}{
		{"(a) 1k inserts", insertStream},
		{"(b) +6% deletes", delStream},
	} {
		fmt.Fprintf(cfg.Out, "%s\n", variant.label)
		fmt.Fprintf(cfg.Out, "%-10s %14s %14s %10s\n", "query", "TurboFlux", "IncIsoMat", "speedup")
		for j, sc := range sel {
			r := cfg.runCfg()
			r.Stream = variant.stream
			tf := RunQuery(TurboFlux, ds, sc.q, r)
			im := RunQuery(IncIsoMat, ds, sc.q, r)
			name := fmt.Sprintf("Q%s-%d", []string{"min", "max"}[j], i)
			if im.TimedOut {
				fmt.Fprintf(cfg.Out, "%-10s %14s %14s %10s\n", name, cell(tf), "timeout", ">")
				continue
			}
			fmt.Fprintf(cfg.Out, "%-10s %14s %14s %9.0fx\n",
				name, cell(tf), cell(im), float64(im.Cost)/float64(max64(int64(tf.Cost), 1)))
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// prefixInserts returns the first n insert operations of ups.
func prefixInserts(ups []stream.Update, n int) []stream.Update {
	out := make([]stream.Update, 0, n)
	for _, u := range ups {
		if u.Op != stream.OpInsert {
			continue
		}
		out = append(out, u)
		if len(out) == n {
			break
		}
	}
	return out
}

// withDeletions interleaves pct% deletions of previously inserted edges.
func withDeletions(ins []stream.Update, pct int, seed int64) []stream.Update {
	out := make([]stream.Update, 0, len(ins)+len(ins)*pct/100)
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(n int) int {
		state = state*2862933555777941757 + 3037000493
		return int(state % uint64(n))
	}
	for i, u := range ins {
		out = append(out, u)
		if i > 0 && next(100) < pct {
			d := ins[next(i)]
			out = append(out, stream.Delete(d.Edge.From, d.Edge.Label, d.Edge.To))
		}
	}
	return out
}

// Fig13NetflowTree reproduces Figure 13 (Appendix B.4): Netflow tree
// queries. The label-poor dataset makes the baselines time out, which is
// the paper's finding; they run under the same censoring here.
func Fig13NetflowTree(cfg Config) {
	banner(cfg.Out, "Figure 13: Netflow tree queries")
	ds := cfg.netflow()
	kinds := []Kind{TurboFlux, SJTree, Graphflow}
	Header(cfg.Out, "query size", kinds, true)
	for _, size := range []int{3, 6, 9, 12} {
		qs := cfg.treeSet(ds, size, cfg.Seed+700+int64(size))
		sums := querySetSums(ds, qs, kinds, cfg.runCfg())
		Row(cfg.Out, fmt.Sprintf("tree-%d", size), sums, kinds, true)
		cfg.CSV.AddSummaries("fig13", fmt.Sprintf("tree-%d", size), sums, kinds)
	}
}

// Fig14NetflowGraph reproduces Figure 14: Netflow cyclic queries.
func Fig14NetflowGraph(cfg Config) {
	banner(cfg.Out, "Figure 14: Netflow graph (cyclic) queries")
	ds := cfg.netflow()
	kinds := []Kind{TurboFlux, SJTree, Graphflow}
	Header(cfg.Out, "query size", kinds, true)
	for _, size := range []int{6, 9, 12} {
		qs := cfg.cyclicSet(ds, size, cfg.Seed+800+int64(size))
		sums := querySetSums(ds, qs, kinds, cfg.runCfg())
		Row(cfg.Out, fmt.Sprintf("graph-%d", size), sums, kinds, true)
		cfg.CSV.AddSummaries("fig14", fmt.Sprintf("graph-%d", size), sums, kinds)
	}
}

// Fig15NetflowPath reproduces Figure 15 (Appendix B.6): the path queries
// of the SJ-Tree paper, sizes 3–5.
func Fig15NetflowPath(cfg Config) {
	banner(cfg.Out, "Figure 15: Netflow path queries from [7]")
	ds := cfg.netflow()
	kinds := []Kind{TurboFlux, SJTree, Graphflow}
	Header(cfg.Out, "query size", kinds, true)
	for _, size := range []int{3, 4, 5} {
		qs := ds.PathQueries(cfg.QueriesPerSet, size, cfg.Seed+900+int64(size))
		sums := querySetSums(ds, qs, kinds, cfg.runCfg())
		Row(cfg.Out, fmt.Sprintf("path-%d", size), sums, kinds, true)
		cfg.CSV.AddSummaries("fig15", fmt.Sprintf("path-%d", size), sums, kinds)
		speedupLine(cfg.Out, TurboFlux, sums, []Kind{SJTree, Graphflow})
	}
}

// Fig16NetflowBTree reproduces Figure 16: the binary-tree queries of the
// SJ-Tree paper, sizes 4–14.
func Fig16NetflowBTree(cfg Config) {
	banner(cfg.Out, "Figure 16: Netflow binary-tree queries from [7]")
	ds := cfg.netflow()
	kinds := []Kind{TurboFlux, SJTree, Graphflow}
	Header(cfg.Out, "query size", kinds, true)
	for _, size := range []int{4, 8, 11, 14} {
		qs := ds.BinaryTreeQueries(cfg.QueriesPerSet, size, cfg.Seed+950+int64(size))
		sums := querySetSums(ds, qs, kinds, cfg.runCfg())
		Row(cfg.Out, fmt.Sprintf("btree-%d", size), sums, kinds, true)
		cfg.CSV.AddSummaries("fig16", fmt.Sprintf("btree-%d", size), sums, kinds)
	}
}

// Fig17Selectivity reproduces Figure 17 (Appendix C): the distribution of
// positive-match counts per query set, as stacked-histogram fractions.
func Fig17Selectivity(cfg Config) {
	banner(cfg.Out, "Figure 17: selectivity distribution (positive matches per query)")
	type set struct {
		label string
		ds    *workload.Dataset
		qs    []*query.Graph
	}
	ls := cfg.lsbench()
	nf := cfg.netflow()
	sets := []set{
		{"LSBench tree-6", ls, ls.TreeQueries(cfg.QueriesPerSet, 6, cfg.Seed+60)},
		{"LSBench graph-6", ls, ls.CyclicQueries(cfg.QueriesPerSet, 6, cfg.Seed+61)},
		{"Netflow tree-3", nf, nf.TreeQueries(cfg.QueriesPerSet, 3, cfg.Seed+62)},
		{"Netflow path-3", nf, nf.PathQueries(cfg.QueriesPerSet, 3, cfg.Seed+63)},
		{"Netflow btree-4", nf, nf.BinaryTreeQueries(cfg.QueriesPerSet, 4, cfg.Seed+64)},
	}
	for _, s := range sets {
		h := stats.NewSelectivityHistogram()
		for _, q := range s.qs {
			r := RunQuery(TurboFlux, s.ds, q, cfg.runCfg())
			if !r.TimedOut {
				h.Observe(r.Matches)
			}
		}
		fmt.Fprintf(cfg.Out, "%-16s %s\n", s.label, h)
	}
}

// NECCompression reproduces Appendix B.5's NEC part: how many queries the
// NEC tree compresses, and SJ-Tree's cost/size on original vs compressed
// queries.
func NECCompression(cfg Config) {
	banner(cfg.Out, "Appendix B.5: SJ-Tree with NEC query compression")
	ds := cfg.lsbench()
	qs := cfg.treeSet(ds, 6, cfg.Seed+60)
	compressible := 0
	var origCost, compCost time.Duration
	var origSize, compSize int64
	rc := cfg.runCfg()
	for _, q := range qs {
		cq, ok := query.NECCompress(q)
		if !ok {
			continue
		}
		compressible++
		o := RunQuery(SJTree, ds, q, rc)
		c := RunQuery(SJTree, ds, cq, rc)
		if o.TimedOut || c.TimedOut {
			continue
		}
		origCost += o.Cost
		compCost += c.Cost
		origSize += o.PeakSize
		compSize += c.PeakSize
	}
	fmt.Fprintf(cfg.Out, "compressible queries: %d/%d\n", compressible, len(qs))
	if origCost > 0 {
		fmt.Fprintf(cfg.Out, "SJ-Tree cost: original %s, NEC-compressed %s (%.1f%% saved)\n",
			stats.FormatDuration(origCost), stats.FormatDuration(compCost),
			100*(1-float64(compCost)/float64(origCost)))
		fmt.Fprintf(cfg.Out, "SJ-Tree size: original %s, NEC-compressed %s\n",
			stats.FormatBytes(origSize), stats.FormatBytes(compSize))
	}
	// The paper's conclusion: TurboFlux still wins by orders of magnitude.
	sums := querySetSums(ds, qs, []Kind{TurboFlux, SJTree}, rc)
	speedupLine(cfg.Out, TurboFlux, sums, []Kind{SJTree})
}
