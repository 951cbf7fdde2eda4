// Command bench is the repository's one benchmark: it spawns the real
// turboflux-serve / turboflux-shard binaries, drives them from this one
// load-generator process over two connections (a writer and a subscriber
// subscribed to every query), checks the outputs, and prints the end-to-end
// metrics, and after a traced run (-trace 1) the per-layer metrics too. Its
// last line carries the bounded end-to-end metrics (-trace 0) or the
// per-layer ones (-trace 1). See README.md.
//
// It is started through run.sh, which builds the binaries under test and
// this program into .bench_build/ first:
//
//	bash bench/run.sh --workload serve-emit --seed 7 --seconds 20 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"turboflux/bench/internal/inputs"
	"turboflux/bench/internal/measure"
)

// setupRepeats is how many times the set-up is timed per run; setup_s is
// their median, and the last set-up system is the one measured.
const setupRepeats = 3

// latencyChunks bounds how many chunks quietQuantile splits a sample into.
const latencyChunks = 12

func main() {
	name := flag.String("workload", "", "workload name (see workloads.go)")
	seed := flag.Int64("seed", 1, "input seed: equal seeds give equal inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds: two fifths paced open loop, the rest saturating closed loop")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: also per-layer metrics (scraped run + in-process layer replay)")
	binDir := flag.String("bin", ".bench_build/bin", "directory holding turboflux-serve and turboflux-shard")
	workDir := flag.String("work", ".bench_build/run", "scratch directory for data dirs, logs and span files")
	out := flag.String("out", "", "append the full result record (one JSON line) to this file")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.Name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	rec, err := run(w, *seed, *seconds, *trace == 1, *binDir, *workDir, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rec.Correct {
		os.Exit(1)
	}
}

func run(w workload, seed int64, seconds float64, trace bool, binDir, workDir, out string) (*record, error) {
	b := bins{serve: filepath.Join(binDir, "turboflux-serve"), shard: filepath.Join(binDir, "turboflux-shard")}
	for _, p := range []string{b.serve, b.shard} {
		if _, err := os.Stat(p); err != nil {
			return nil, fmt.Errorf("binary under test missing (run through bench/run.sh): %w", err)
		}
	}
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", w.Name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	began := time.Now()
	progress := func(what string) {
		fmt.Fprintf(os.Stderr, "bench: %6.2fs %s\n", time.Since(began).Seconds(), what)
	}
	in, err := inputs.Build(w.Spec, w.patterns(), seed)
	if err != nil {
		return nil, err
	}
	progress(fmt.Sprintf("inputs built: %d initial edges, %d updates, %d queries",
		in.Dataset.Graph.NumEdges(), len(in.Dataset.Stream), len(in.Queries)))
	g0 := filepath.Join(dir, "g0.txt")
	g0ups := inputs.G0Updates(in.Dataset.Graph)
	if err := writeG0(g0, g0ups); err != nil {
		return nil, err
	}

	repeats := setupRepeats
	if trace {
		repeats = 1 // setup_s is an end-to-end metric; tracing needs only the system
	}
	sys, setups, err := setUp(b, dir, w.Shards, g0, in, repeats)
	if err != nil {
		return nil, err
	}
	defer func() {
		if sys != nil {
			sys.stop() //tf:unchecked-ok only reached on an error path
		}
	}()

	progress(fmt.Sprintf("set up %d time(s): %v s", repeats, setups))
	var scrape *scraper
	if trace {
		scrape = startScraper(sys)
	}
	o, err := runE2E(sys, w, in.Dataset.Stream, len(in.Queries), seconds, scrape)
	if scrape != nil {
		if serr := scrape.stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		return nil, err
	}
	progress(fmt.Sprintf("end-to-end done: %d paced (drained at %.0f/s), %d saturate updates, %d events", o.pacedN,
		float64(o.pacedN)/(o.ackAt[o.pacedN-1]-o.pacer.Start.Sub(o.epoch)).Seconds(), o.satUpdates, o.ev.seen.Load()))
	st, err := collectStats(sys)
	if err != nil {
		return nil, err
	}
	perProc, err := sys.usage()
	if err != nil {
		return nil, err
	}
	// Closing the subscriber connection ends the event reader.
	sys.sub.Close() //tf:unchecked-ok its events are all in; only the reader's exit matters
	<-o.ev.readEnded
	sys.sub = nil

	v := check(o, st, len(sys.servers), in)
	progress("outputs checked")
	rec := &record{
		Workload: w.Name, Seed: seed, Seconds: seconds, Trace: trace, Host: thisHost(),
		Samples:        map[string]int{},
		SatWindowRates: o.satWindows,
		Violations:     v.violations,
	}
	if w.Shards > 0 {
		rec.Note = fmt.Sprintf("%d server processes and the load generator share %d cores: rows are overhead amortisation, not parallel speed-up", w.Shards+1, rec.Host.NProc)
	}
	rec.Attempted, rec.Failed, rec.Correct = o.sent, v.failed, v.failed == 0

	dataDir := sys.dataDir[0]
	stopErr := sys.stop()
	sys = nil
	if stopErr != nil {
		return nil, fmt.Errorf("stopping the system: %w", stopErr)
	}
	progress("system stopped")

	ack, delivery := latencies(o)
	ms := endToEnd(o, ack, delivery, total(perProc).PeakMB, measure.Median(setups), rec)
	if trace {
		restartS, err := restartSeconds(b, dir, dataDir, g0)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		progress("server restarted on its WAL")
		replay, err := runLayerReplay(in, g0ups, dir)
		if err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		progress("layers replayed")
		spanFile := filepath.Join(workDir, fmt.Sprintf("%s-%d.spans.jsonl", w.Name, seed))
		if err := replay.tr.WriteFile(spanFile); err != nil {
			return nil, err
		}
		progress("spans written to " + spanFile)
		ms = append(ms, wireLayerMetrics(o, w, ack, delivery, st, perProc, scrape, restartS)...)
		ms = append(ms, replay.ms...)
		ms = append(ms,
			// What the wire adds per update: the end-to-end saturate cost
			// minus the same frames through DurableMultiEngine.ApplyBatch
			// in-process.
			metric{Name: "server.wire_overhead_ns_per_update", Unit: "ns",
				Value: float64(o.satWall.Nanoseconds())/float64(o.satUpdates) - replay.value("durable_multi.batch256_ns_per_update")},
			metric{Name: "trace.spans", Unit: "count", Value: float64(len(replay.tr.Spans))})
	}
	if rec.Correct {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	if err := report(os.Stdout, rec, ms); err != nil {
		return nil, err
	}
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// setUp brings the topology up repeats times, timing each from the first
// spawn to the last SUBSCRIBE acknowledgment, and returns the last system
// (the earlier ones are stopped) with every set-up's seconds.
func setUp(b bins, dir string, shards int, g0 string, in *inputs.Inputs, repeats int) (*system, []float64, error) {
	var sys *system
	var took []float64
	for i := 0; i < repeats; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("sys%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		var err error
		if sys, err = startSystem(b, sdir, shards, g0); err != nil {
			return nil, nil, err
		}
		if err := sys.registerAll(in.Names, in.Patterns); err != nil {
			sys.stop() //tf:unchecked-ok already failing
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
		if i < repeats-1 {
			if err := sys.stop(); err != nil {
				return nil, nil, fmt.Errorf("stopping set-up %d: %w", i, err)
			}
		}
	}
	return sys, took, nil
}

// endToEnd derives the metrics a user of the system would see, the same
// on every workload and every run. Four hold a bound in BENCHMARK.json.
// The latencies hold none there, because on this host they cannot (see
// README.md, Latency); bench/compare bounds them all the same and says
// "unresolved" when the runs it is given spread wider than the bound. A run
// whose paced phase is too small for its p95 is not a correct run.
func endToEnd(o *observed, ack, delivery []float64, finalPeakMB, setupS float64, rec *record) []metric {
	rec.Samples["ack"], rec.Samples["delivery"] = len(ack), len(delivery)
	for _, name := range []string{"ack", "delivery"} {
		if n := rec.Samples[name]; !measure.Supports(n, 95) {
			rec.Correct = false
			rec.Violations = append(rec.Violations, fmt.Sprintf("%s sample of %d cannot support a p95", name, n))
		}
	}
	peakMB := o.markPeakMB
	if peakMB == 0 {
		peakMB = finalPeakMB // the run never reached the workload's MemoryMark
	}
	ackS, deliveryS := measure.Sorted(ack), measure.Sorted(delivery)
	return []metric{
		{"updates_per_s", "1/s", float64(o.satUpdates) / o.satWall.Seconds(), bounded},
		{"ack_ms_p50", "ms", measure.Quantile(ackS, 50), perLayer},
		{"ack_ms_p95", "ms", measure.Quantile(ackS, 95), perLayer},
		{"ack_ms_p95_quiet", "ms", quietQuantile(ack, 95), perLayer},
		{"delivery_ms_p50", "ms", measure.Quantile(deliveryS, 50), perLayer},
		{"delivery_ms_p95", "ms", measure.Quantile(deliveryS, 95), perLayer},
		{"delivery_ms_p95_quiet", "ms", quietQuantile(delivery, 95), perLayer},
		{"cpu_us_per_update", "us", float64(o.satCPU.Microseconds()) / float64(o.satUpdates), bounded},
		{"rss_peak_mb", "MB", peakMB, bounded},
		{"setup_s", "s", setupS, bounded},
		{"failed_share", "ratio", float64(rec.Failed) / float64(rec.Attempted), printedOnly},
	}
}

// latencies returns the paced-phase latencies in ms, in send order, each
// from the update's due time: to its acknowledgment (every update), and to
// the last event it produced (updates whose acknowledgment reports a
// match). The warm-up second is sent and checked but not timed: the first
// updates pay page faults and lazy initialisation on both sides that no
// later update pays.
func latencies(o *observed) (ack, delivery []float64) {
	for i := o.warmupN; i < o.pacedN; i++ {
		due := o.pacer.Due(i).Sub(o.epoch)
		ack = append(ack, float64(o.ackAt[i]-due)/1e6)
		if o.ackTotal[i] > 0 && o.ev.lastAt[i] > 0 {
			delivery = append(delivery, float64(o.ev.lastAt[i]-due)/1e6)
		}
	}
	return ack, delivery
}

// quietQuantile splits the time-ordered sample into up to latencyChunks
// equal chunks, each large enough to support percentile p, and returns the
// lowest of the chunks' percentiles: the tail the system shows in the part
// of the phase the host disturbed least. It is a best case and is named so
// (*_p95_quiet), beside the plain p95 over the whole sample. The reason for
// it is this host: its noise is one-sided
// and bursty (a stall of a few hundred ms, from outside the system, moves
// the whole-sample p95 of a 4 s phase tenfold), so the whole-sample tail
// cannot carry a bound, while a change that slows every update moves every
// chunk, the quietest included. A change that adds occasional stalls does
// not move it, and shows in ack_ms_p95 and client.ack_ms_max, in
// updates_per_s, and as undrained backlog.
func quietQuantile(xs []float64, p float64) float64 {
	// Five times the samples a reportable percentile needs: the minimum
	// over chunks would otherwise pick out a chunk's sampling error.
	need := 5 * int(measure.MinBeyond*100/(100-p))
	k := min(max(len(xs)/need, 1), latencyChunks)
	best := 0.0
	for c := 0; c < k; c++ {
		chunk := xs[c*len(xs)/k : (c+1)*len(xs)/k]
		if q := measure.Quantile(measure.Sorted(chunk), p); c == 0 || q < best {
			best = q
		}
	}
	return best
}

// selfCPU returns this process's user+sys CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
