package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"turboflux/internal/csm"
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
	SizeCap       int64         // per-query intermediate-size cap, bytes (csm.Options.SizeCap)
	WorkBudget    int64         // per-update cap on each engine's reported matches (csm.Options.WorkBudget)
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

// experiment is one entry of the paper's evaluation: the id Run accepts,
// the banner it prints, and the function that prints the rest.
type experiment struct {
	id, title string
	run       func(cfg Config, id string)
}

// experiments is the one ordered table of the paper's figures; Run, "all"
// and Experiments read it.
var experiments = []experiment{
	{"fig3", "Figure 3: performance vs storage trade-off (LSBench, tree q6)", fig3},
	{"fig6", "Figure 6: LSBench tree queries (a: cost, b: intermediate size)",
		sweep{data: Config.lsbench, shape: "tree", sizes: []int{3, 6, 9, 12}, speedup: true, scatter: true}.run},
	{"fig7", "Figure 7: LSBench graph (cyclic) queries",
		sweep{data: Config.lsbench, shape: "graph", sizes: []int{6, 9, 12}, seed: 100, speedup: true, scatter: true}.run},
	{"fig8", "Figure 8: varying insertion rate (LSBench, tree q6)", fig8},
	{"fig9", "Figure 9: varying dataset size (fixed stream)", fig9},
	{"fig10", "Figure 10: subgraph isomorphism semantics (LSBench)", fig10},
	{"fig11", "Figure 11: varying deletion rate (LSBench, tree q6; no SJ-Tree)", fig11},
	{"fig12", "Figure 12: comparison with IncIsoMat (LSBench)", fig12},
	// Figure 13's label-poor dataset makes the baselines time out, which
	// is the paper's finding (Appendix B.4); they run under the same
	// censoring here.
	{"fig13", "Figure 13: Netflow tree queries",
		sweep{data: Config.netflow, shape: "tree", sizes: []int{3, 6, 9, 12}, seed: 700}.run},
	{"fig14", "Figure 14: Netflow graph (cyclic) queries",
		sweep{data: Config.netflow, shape: "graph", sizes: []int{6, 9, 12}, seed: 800}.run},
	// Figures 15 and 16 (Appendix B.6) replay the path and binary-tree
	// queries of the SJ-Tree paper [7].
	{"fig15", "Figure 15: Netflow path queries from [7]",
		sweep{data: Config.netflow, shape: "path", sizes: []int{3, 4, 5}, seed: 900, speedup: true}.run},
	{"fig16", "Figure 16: Netflow binary-tree queries from [7]",
		sweep{data: Config.netflow, shape: "btree", sizes: []int{4, 8, 11, 14}, seed: 950}.run},
	{"fig17", "Figure 17: selectivity distribution (positive matches per query)", fig17},
	{"nec", "Appendix B.5: SJ-Tree with NEC query compression", nec},
}

// Experiments lists every experiment id accepted by Run, in table order,
// then "all".
func Experiments() []string {
	ids := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	return append(ids, "all")
}

// Run executes one experiment by id (or "all").
func Run(exp string, cfg Config) error {
	if cfg.Out == nil {
		return fmt.Errorf("harness: nil output writer")
	}
	ran := false
	for _, e := range experiments {
		if exp == "all" || exp == e.id {
			banner(cfg.Out, e.title)
			e.run(cfg, e.id)
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("harness: unknown experiment %q (known: %v)", exp, Experiments())
	}
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
		Engine:  csm.Options{WorkBudget: cfg.WorkBudget, SizeCap: cfg.SizeCap},
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
		faster, smaller, n := tf.Speedup(s)
		total := len(tf.Costs) + tf.Timeouts
		if n == 0 {
			fmt.Fprintf(w, "  %s vs %s: no query of %d finished on both\n", base, k, total)
			continue
		}
		fmt.Fprintf(w, "  %s vs %s: %.2fx faster on %d of %d paired queries", base, k, faster, n, total)
		// Graphflow keeps no intermediate results: a ratio to its zero
		// size means nothing.
		if !math.IsNaN(smaller) {
			fmt.Fprintf(w, ", %.2fx smaller intermediate results", smaller)
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

// querySet generates a query set of one shape and size. "tree" and
// "graph" (cyclic) sets are filtered by selectQueries; "path" and "btree",
// the queries of [7], are replayed as generated.
func (cfg Config) querySet(ds *workload.Dataset, shape string, size int, seed int64) []*query.Graph {
	var cands []*query.Graph
	switch shape {
	case "tree":
		cands = ds.TreeQueries(cfg.QueriesPerSet*3, size, seed)
	case "graph":
		cands = ds.CyclicQueries(cfg.QueriesPerSet*3, size, seed)
	case "path":
		return ds.PathQueries(cfg.QueriesPerSet, size, seed)
	case "btree":
		return ds.BinaryTreeQueries(cfg.QueriesPerSet, size, seed)
	default:
		panic("harness: unknown query shape " + shape)
	}
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

// fig3 prints the performance/storage trade-off summary of Figure 3: one
// row per engine on the default LSBench tree-q6 set.
func fig3(cfg Config, _ string) {
	ds := cfg.lsbench()
	qs := cfg.querySet(ds, "tree", 6, cfg.Seed+60)
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

// sweep is a figure that runs TurboFlux, SJ-Tree and Graphflow on one
// query set per size: Figures 6 and 7 on LSBench, 13 to 16 on Netflow.
// Each size's rows are labelled "<shape>-<size>", and its set is drawn
// from seed cfg.Seed+seed+size.
type sweep struct {
	data  func(Config) *workload.Dataset
	shape string // querySet's shape
	sizes []int
	seed  int64
	// speedup prints TurboFlux's speedup over each baseline per size;
	// scatter, with cfg.Scatter, the per-query cost pairs of Figures 6c/d
	// and 7c/d.
	speedup, scatter bool
}

func (sw sweep) run(cfg Config, id string) {
	ds := sw.data(cfg)
	kinds := []Kind{TurboFlux, SJTree, Graphflow}
	Header(cfg.Out, "query size", kinds, true)
	for _, size := range sw.sizes {
		qs := cfg.querySet(ds, sw.shape, size, cfg.Seed+sw.seed+int64(size))
		sums := querySetSums(ds, qs, kinds, cfg.runCfg())
		label := fmt.Sprintf("%s-%d", sw.shape, size)
		Row(cfg.Out, label, sums, kinds, true)
		cfg.CSV.AddSummaries(id, label, sums, kinds)
		if sw.speedup {
			speedupLine(cfg.Out, TurboFlux, sums, []Kind{SJTree, Graphflow})
		}
		if sw.scatter && cfg.Scatter {
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

// fig8 reproduces Figure 8: tree-q6 cost while the insertion rate (stream
// share of all triples) grows from 2% to 10%.
func fig8(cfg Config, id string) {
	kinds := []Kind{TurboFlux, SJTree, Graphflow}
	Header(cfg.Out, "insert rate", kinds, true)
	for _, rate := range []int{2, 4, 6, 8, 10} {
		ds := workload.LSBench(workload.LSBenchConfig{
			Users: cfg.Users, StreamFraction: float64(rate) / 100, Seed: cfg.Seed,
		})
		qs := cfg.querySet(ds, "tree", 6, cfg.Seed+200)
		sums := querySetSums(ds, qs, kinds, cfg.runCfg())
		Row(cfg.Out, fmt.Sprintf("%d%%", rate), sums, kinds, true)
		cfg.CSV.AddSummaries(id, fmt.Sprintf("%d%%", rate), sums, kinds)
	}
}

// fig9 reproduces Figure 9: fixed-size stream over initial graphs scaled
// 1x / 4x / 16x (the paper scales users 0.1M/1M/10M).
func fig9(cfg Config, id string) {
	kinds := []Kind{TurboFlux, SJTree, Graphflow}
	Header(cfg.Out, "users", kinds, true)
	// The paper replays the same queries and stream size against every
	// initial-graph scale; select the query set once at 1x.
	base := cfg.lsbench()
	qs := cfg.querySet(base, "tree", 6, cfg.Seed+300)
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
		cfg.CSV.AddSummaries(id, fmt.Sprintf("%dx", mult), sums, kinds)
	}
}

// fig10 reproduces Figure 10 (Appendix B.1): subgraph isomorphism
// semantics on LSBench tree and graph queries.
func fig10(cfg Config, id string) {
	ds := cfg.lsbench()
	kinds := []Kind{TurboFlux, SJTree, Graphflow}
	rc := cfg.runCfg()
	rc.Engine.Injective = true
	Header(cfg.Out, "query set", kinds, false)
	for _, set := range []struct {
		label string
		qs    []*query.Graph
	}{
		{"tree-6", cfg.querySet(ds, "tree", 6, cfg.Seed+400)},
		{"graph-6", cfg.querySet(ds, "graph", 6, cfg.Seed+410)},
	} {
		sums := querySetSums(ds, set.qs, kinds, rc)
		Row(cfg.Out, set.label, sums, kinds, false)
		cfg.CSV.AddSummaries(id, set.label, sums, kinds)
		speedupLine(cfg.Out, TurboFlux, sums, []Kind{SJTree, Graphflow})
	}
}

// fig11 reproduces Figure 11 (Appendix B.2): insertion rate fixed at 6%,
// deletion rate (#deletions/#insertions) 2%–10%. SJ-Tree is excluded: it
// does not support deletion.
func fig11(cfg Config, id string) {
	kinds := []Kind{TurboFlux, Graphflow}
	Header(cfg.Out, "delete rate", kinds, true)
	for _, rate := range []int{2, 4, 6, 8, 10} {
		ds := workload.LSBench(workload.LSBenchConfig{
			Users: cfg.Users, StreamFraction: 0.06,
			DeletionRate: float64(rate) / 100, Seed: cfg.Seed,
		})
		qs := cfg.querySet(ds, "tree", 6, cfg.Seed+500)
		sums := querySetSums(ds, qs, kinds, cfg.runCfg())
		Row(cfg.Out, fmt.Sprintf("%d%%", rate), sums, kinds, true)
		cfg.CSV.AddSummaries(id, fmt.Sprintf("%d%%", rate), sums, kinds)
	}
}

// fig12 reproduces Figure 12 (Appendix B.3): TurboFlux vs IncIsoMat on the
// cheapest and most expensive tree-q6 queries, over a short insert stream
// (a) and the same stream with 6% deletions (b).
func fig12(cfg Config, _ string) {
	ds := cfg.lsbench()
	qs := cfg.querySet(ds, "tree", 6, cfg.Seed+600)
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
				name, cell(tf), cell(im), float64(im.Cost)/float64(max(tf.Cost, 1)))
		}
	}
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

// fig17 reproduces Figure 17 (Appendix C): the distribution of
// positive-match counts per query set, as stacked-histogram fractions.
func fig17(cfg Config, _ string) {
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

// nec reproduces Appendix B.5's NEC part: how many queries the NEC tree
// compresses, and SJ-Tree's cost/size on original vs compressed queries.
func nec(cfg Config, _ string) {
	ds := cfg.lsbench()
	qs := cfg.querySet(ds, "tree", 6, cfg.Seed+60)
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
