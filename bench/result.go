package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// metric is one measured value. Values are printed as measured, with all
// their digits.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Kind  metricKind
}

// metricKind says which result line carries a metric. Every run prints
// and records (-out) every metric it measured, whatever the kind.
type metricKind int

const (
	// perLayer metrics are BENCHMARK.json's per_layer: unbounded, on the
	// result line of a traced run.
	perLayer metricKind = iota
	// bounded metrics are BENCHMARK.json's end_to_end: each holds a
	// regression bound, on the result line of an untraced run.
	bounded
	// printedOnly is failed_share: a result line's metrics may never be 0,
	// and its failed and attempted fields say the same.
	printedOnly
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostInfo is recorded in every result so rows from different machines or
// toolchains are never compared by accident.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

func thisHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     os.Getenv("BENCH_GIT_REV"),
	}
	if h.GitRev == "" {
		h.GitRev = "unknown"
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			h.GitRev = strings.TrimSpace(string(out))
		}
	}
	return h
}

// summary is the last line of standard output: the contract with whatever
// runs the benchmark.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full result, one JSON line per run in the -out file;
// bench/compare reads these.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Host     hostInfo       `json:"host"`
	Note     string         `json:"note,omitempty"`
	Samples  map[string]int `json:"samples"`
	// SatWindowRates is the saturate phase's updates/s per half second, in
	// order: the trend along the stream and any stall are visible in it.
	SatWindowRates []float64 `json:"sat_window_rates"`
	Violations     []string  `json:"violations,omitempty"`
	summary
}

// report prints every metric as "name unit value", any violations, then
// the summary line, which carries the bounded metrics of an untraced run
// and the per-layer metrics of a traced one. It files all of them into rec.
func report(w io.Writer, rec *record, ms []metric) error {
	rec.Metrics = make(map[string]metricValue, len(ms))
	sum := rec.summary
	sum.Metrics = map[string]metricValue{}
	onLine := bounded
	if rec.Trace {
		onLine = perLayer
	}
	for _, m := range ms {
		if _, err := fmt.Fprintf(w, "%s %s %v\n", m.Name, m.Unit, m.Value); err != nil {
			return err
		}
		mv := metricValue{Value: m.Value, Unit: m.Unit}
		rec.Metrics[m.Name] = mv
		if m.Kind == onLine {
			sum.Metrics[m.Name] = mv
		}
	}
	for _, v := range rec.Violations {
		if _, err := fmt.Fprintln(w, "violation:", v); err != nil {
			return err
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close() //tf:unchecked-ok already failing; the write error wins
		return err
	}
	return f.Close()
}
