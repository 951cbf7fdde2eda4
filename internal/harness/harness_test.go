package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"turboflux/internal/csm"
	"turboflux/internal/query"
	"turboflux/internal/stats"
	"turboflux/internal/stream"
	"turboflux/internal/workload"
)

func tinyConfig(buf *bytes.Buffer) Config {
	cfg := DefaultConfig(buf)
	cfg.Users = 120
	cfg.Hosts = 300
	cfg.Triples = 4000
	cfg.QueriesPerSet = 2
	cfg.Timeout = time.Second
	cfg.WorkBudget = 1_000_000
	cfg.SizeCap = 1 << 24
	return cfg
}

// TestRunAllExperiments drives every experiment at miniature scale and
// checks each table entry's banner appears, in table order, and that data
// rows appear.
func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	if err := Run("all", cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	rest := out
	for _, e := range experiments {
		b := "\n=== " + e.title + " ===\n"
		i := strings.Index(rest, b)
		if i < 0 {
			t.Fatalf("%s: banner %q missing or out of table order\n--- output ---\n%s", e.id, b, out)
		}
		rest = rest[i+len(b):]
	}
	for _, want := range []string{"tree-3", "graph-6", "path-3", "btree-4", "TurboFlux"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n--- output ---\n%s", want, out)
		}
	}
}

// TestExperimentsListsTable checks Experiments lists each table id once,
// in table order, followed by "all".
func TestExperimentsListsTable(t *testing.T) {
	got := Experiments()
	seen := map[string]bool{}
	for i, e := range experiments {
		if seen[e.id] {
			t.Fatalf("id %q appears twice in the table", e.id)
		}
		seen[e.id] = true
		if i >= len(got) || got[i] != e.id {
			t.Fatalf("Experiments() = %v, want table order with %q at %d", got, e.id, i)
		}
	}
	if len(got) != len(experiments)+1 || got[len(got)-1] != "all" {
		t.Fatalf("Experiments() = %v, want the table's ids then \"all\"", got)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", tinyConfig(&buf)); err == nil {
		t.Fatal("unknown experiment must error")
	}
	if err := Run("fig6", Config{}); err == nil {
		t.Fatal("nil writer must error")
	}
}

func TestRunQueryBasics(t *testing.T) {
	ds := workload.LSBench(workload.LSBenchConfig{Users: 120, StreamFraction: 0.1, Seed: 1})
	qs := ds.TreeQueries(3, 3, 5)
	rc := RunConfig{Timeout: time.Second, Engine: csm.Options{WorkBudget: 1_000_000}}
	for _, kind := range []Kind{TurboFlux, SJTree, Graphflow} {
		r := RunQuery(kind, ds, qs[0], rc)
		if r.TimedOut {
			t.Fatalf("%v timed out on tiny workload", kind)
		}
		if r.Ops != len(ds.Stream) {
			t.Fatalf("%v applied %d ops, want %d", kind, r.Ops, len(ds.Stream))
		}
	}
	// Engines must agree on total matches for an insert-only stream.
	tf := RunQuery(TurboFlux, ds, qs[0], rc)
	sj := RunQuery(SJTree, ds, qs[0], rc)
	gf := RunQuery(Graphflow, ds, qs[0], rc)
	if tf.Matches != sj.Matches || tf.Matches != gf.Matches {
		t.Fatalf("match counts disagree: TF=%d SJ=%d GF=%d", tf.Matches, sj.Matches, gf.Matches)
	}
}

// TestEnginesAgreeOnMixedStream cross-checks TurboFlux, Graphflow and
// IncIsoMat match totals on a stream with deletions at workload scale —
// the macro-level analogue of the per-update differential tests.
func TestEnginesAgreeOnMixedStream(t *testing.T) {
	ds := workload.LSBench(workload.LSBenchConfig{
		Users: 120, StreamFraction: 0.08, DeletionRate: 0.1, Seed: 2,
	})
	qs := ds.TreeQueries(2, 4, 9)
	rc := RunConfig{Timeout: 5 * time.Second, Engine: csm.Options{WorkBudget: 5_000_000}}
	for _, q := range qs {
		tf := RunQuery(TurboFlux, ds, q, rc)
		gf := RunQuery(Graphflow, ds, q, rc)
		if tf.TimedOut || gf.TimedOut {
			continue
		}
		if tf.Matches != gf.Matches {
			t.Fatalf("TF=%d GF=%d on %v", tf.Matches, gf.Matches, q)
		}
	}
}

func TestRunQueryCensoring(t *testing.T) {
	ds := workload.Netflow(workload.NetflowConfig{Hosts: 200, Triples: 8000, StreamFraction: 0.2, Seed: 3})
	qs := ds.TreeQueries(1, 9, 1)
	// A budget of one match censors the first update completing two.
	r := RunQuery(Graphflow, ds, qs[0], RunConfig{Engine: csm.Options{WorkBudget: 1}})
	if !r.TimedOut {
		t.Fatal("tiny budget must censor the query")
	}
	// SJ-Tree's size cap censors at construction or during replay.
	r = RunQuery(SJTree, ds, qs[0], RunConfig{Engine: csm.Options{SizeCap: 256}})
	if !r.TimedOut {
		t.Fatal("tiny size cap must censor SJ-Tree")
	}
}

func TestSelectQueriesFiltersEmpty(t *testing.T) {
	ds := workload.LSBench(workload.LSBenchConfig{Users: 120, StreamFraction: 0.1, Seed: 1})
	// A query that cannot match anything: label 99 does not exist.
	dead := query.NewGraph(2)
	dead.SetLabels(0, 99)
	_ = dead.AddEdge(0, workload.EdgeFollows, 1)
	live := ds.TreeQueries(1, 3, 5)[0]
	got := selectQueries(ds, []*query.Graph{dead, live}, 2,
		RunConfig{Timeout: time.Second, Engine: csm.Options{WorkBudget: 1_000_000}})
	for _, q := range got {
		if q == dead {
			t.Fatal("zero-match query must be filtered")
		}
	}
}

func TestKindString(t *testing.T) {
	if TurboFlux.String() != "TurboFlux" || SJTree.String() != "SJ-Tree" ||
		Graphflow.String() != "Graphflow" || IncIsoMat.String() != "IncIsoMat" {
		t.Fatal("Kind names wrong")
	}
	if Kind(99).String() != "?" {
		t.Fatal("unknown kind must render ?")
	}
	if _, err := NewEngine(Kind(99), workload.LSBench(workload.LSBenchConfig{Users: 50, Seed: 1}).Graph,
		nil, csm.Options{}); err == nil {
		t.Fatal("unknown kind must error")
	}
}

func TestWithDeletionsHelper(t *testing.T) {
	ins := make([]stream.Update, 50)
	for i := range ins {
		ins[i] = stream.Insert(0, 0, 1)
	}
	out := withDeletions(ins, 50, 1)
	dels := 0
	for _, u := range out {
		if u.Op == stream.OpDelete {
			dels++
		}
	}
	if dels == 0 {
		t.Fatal("no deletions interleaved")
	}
	if got := prefixInserts(out, 10); len(got) != 10 {
		t.Fatalf("prefixInserts = %d", len(got))
	}
	for _, u := range prefixInserts(out, 10) {
		if u.Op != stream.OpInsert {
			t.Fatal("prefixInserts returned a non-insert")
		}
	}
}

// TestSpeedupLinePaired plants summaries whose unpaired means disagree
// with the paired ratio: TurboFlux finished queries 0–6 of 8, the hard ones
// 3–6 among them, and SJ-Tree only the easy 0–2. The line must compare the
// three both finished, and say so.
func TestSpeedupLinePaired(t *testing.T) {
	var tf, sj stats.Summary
	for i := 0; i < 7; i++ {
		cost, size := time.Millisecond, int64(100)
		if i >= 3 {
			cost, size = 100*time.Millisecond, 10_000
		}
		tf.AddQuery(i, cost, size, 0)
	}
	tf.AddTimeout()
	for i := 0; i < 3; i++ {
		sj.AddQuery(i, 4*time.Millisecond, 300, 0)
	}
	for i := 3; i < 8; i++ {
		sj.AddTimeout()
	}
	var none stats.Summary
	none.AddQuery(7, time.Millisecond, 0, 0)
	for i := 0; i < 7; i++ {
		none.AddTimeout()
	}
	var buf bytes.Buffer
	speedupLine(&buf, TurboFlux, map[Kind]*stats.Summary{TurboFlux: &tf, SJTree: &sj, Graphflow: &none}, []Kind{SJTree, Graphflow})
	want := "  TurboFlux vs SJ-Tree: 4.00x faster on 3 of 8 paired queries, 3.00x smaller intermediate results\n" +
		"  TurboFlux vs Graphflow: no query of 8 finished on both\n"
	if got := buf.String(); got != want {
		t.Fatalf("speedup lines:\n%s\nwant:\n%s", got, want)
	}
}
