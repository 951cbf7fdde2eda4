// Command compare is the regression gate over two sets of benchmark
// results: it applies BENCHMARK.json's per-metric bounds to the medians of
// a base set A and a candidate set B and prints one row per (workload,
// end-to-end metric) as better / within / worse / unresolved. The paced
// phase's latencies, which every run records but BENCHMARK.json cannot
// bound (see latencyBound), are gated the same way. Runs that
// failed their output checks are left out of the medians and counted. It
// exits 1 when any row is worse or a run on either side failed.
//
//	cd bench && go run ./compare [-benchmark ../BENCHMARK.json] A.jsonl B.jsonl
//
// A and B hold the JSON lines bench writes with -out, one per run; runs of
// several workloads and seeds may share a file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"turboflux/bench/internal/measure"
)

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd  []boundedMetric `json:"end_to_end"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Correct  bool   `json:"correct"`
	Failed   int    `json:"failed"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// latencyBound is the bound on the latencies every run records. They are
// end-to-end metrics of the issue, but BENCHMARK.json's end_to_end list
// holds only metrics whose spread over ten seeds stays within their bound on
// the host the benchmark was built on, and the latencies' does not there
// (README.md, Latency). Here a spread wider than the bound is a verdict,
// "unresolved", so they stay in this gate: a regression on the
// single-update path or in event delivery shows as "worse" when the host is
// quiet enough to tell.
const latencyBound = 0.25

var latencies = []string{"ack_ms_p50", "ack_ms_p95", "ack_ms_p95_quiet", "delivery_ms_p50", "delivery_ms_p95", "delivery_ms_p95_quiet"}

// samples maps workload -> metric -> one value per run.
type samples map[string]map[string][]float64

func main() {
	benchPath := flag.String("benchmark", "../BENCHMARK.json", "BENCHMARK.json holding the per-metric bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] A.jsonl B.jsonl")
		os.Exit(2)
	}
	code, err := run(os.Stdout, *benchPath, flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(w io.Writer, benchPath, aPath, bPath string) (int, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return 0, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return 0, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, failedA, err := load(aPath)
	if err != nil {
		return 0, err
	}
	b, failedB, err := load(bPath)
	if err != nil {
		return 0, err
	}
	gated := bf.EndToEnd
	for _, name := range latencies {
		gated = append(gated, boundedMetric{Name: name, Unit: "ms", Better: "lower", Bound: latencyBound})
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tworse by\tbound\tspread A/B\tverdict")
	exit := 0
	for _, wl := range bf.Workloads {
		for _, m := range gated {
			av, bv := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.2f\t-\tunresolved (no runs on one side)\n", wl.Name, m.Name, m.Bound)
				continue
			}
			ma, mb := measure.Median(av), measure.Median(bv)
			worse := worsening(ma, mb, m.Better == "higher")
			sa, sb := spread(av), spread(bv)
			v := verdict(worse, m.Bound, max(sa, sb))
			if v == "worse" {
				exit = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.1f%%\t%.0f%%\t%.1f%%/%.1f%%\t%s\n",
				wl.Name, m.Name, ma, m.Unit, mb, m.Unit, 100*worse, 100*m.Bound, 100*sa, 100*sb, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	if failedA+failedB > 0 {
		fmt.Fprintf(w, "runs that failed their output checks (left out of the medians): %d in A, %d in B\n", failedA, failedB)
		exit = 1
	}
	return exit, nil
}

// load reads untraced run records. Runs whose output checks did not pass
// are counted in failed and contribute no samples: a run that lost events
// or refused updates did other work, and its numbers mean nothing.
func load(path string) (s samples, failed int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close() //tf:unchecked-ok read-only
	s = samples{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, 0, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue // per-layer rows carry no bounds
		}
		if !r.Correct || r.Failed > 0 {
			failed++
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	return s, failed, sc.Err()
}

// worsening is the share of A's median by which B's is worse (negative
// when B is better).
func worsening(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if higherIsBetter {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict applies the bound. When the run-to-run spread is wider than the
// bound, a difference inside the spread says nothing either way and is
// reported as unresolved, not as unchanged.
func verdict(worse, bound, noise float64) string {
	limit := bound
	if noise > bound {
		limit = noise
	}
	switch {
	case worse > limit:
		return "worse"
	case worse < -limit:
		return "better"
	case noise > bound:
		return "unresolved"
	default:
		return "within"
	}
}

// spread is the interquartile range as a share of the median, with the
// quartiles of Python's statistics.quantiles(values, n=4) — the rule the
// benchmark's acceptance uses. Fewer than two values have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := measure.Median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
