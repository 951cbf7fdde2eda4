package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if got := spread([]float64{100, 110, 90, 105, 95}); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("spread = %v, want 0.15 (quartiles 92.5 and 107.5 over a median of 100)", got)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		worse, bound, noise float64
		want                string
	}{
		{0.12, 0.10, 0.02, "worse"},
		{0.08, 0.10, 0.02, "within"},
		{-0.15, 0.10, 0.02, "better"},
		{0.12, 0.10, 0.20, "unresolved"}, // inside a spread wider than the bound
		{0.25, 0.10, 0.20, "worse"},      // beyond even the spread
		{0.00, 0.10, 0.20, "unresolved"},
	} {
		if got := verdict(c.worse, c.bound, c.noise); got != c.want {
			t.Errorf("verdict(worse=%v bound=%v noise=%v) = %s, want %s", c.worse, c.bound, c.noise, got, c.want)
		}
	}
	if worsening(100, 90, true) != 0.1 || worsening(100, 90, false) != -0.1 {
		t.Error("worsening must follow the metric's direction")
	}
}

func TestRunGates(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// The latency is not in BENCHMARK.json; compare gates it all the same.
	bench := write("BENCHMARK.json", `{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"updates_per_s","unit":"1/s","better":"higher","bound":0.1}]}`)
	rec := func(ups, ack float64, failed int) string {
		return fmt.Sprintf(`{"workload":"w","trace":false,"correct":%t,"failed":%d,"metrics":{"updates_per_s":{"value":%v},"ack_ms_p95":{"value":%v}}}`+"\n",
			failed == 0, failed, ups, ack)
	}
	a := write("a.jsonl", rec(1000, 1.0, 0)+rec(1010, 1.02, 0)+rec(990, 0.98, 0))
	same := write("same.jsonl", rec(1005, 1.1, 0)+rec(995, 1.0, 0)+rec(1000, 1.05, 0))
	slow := write("slow.jsonl", rec(800, 1.0, 0)+rec(810, 1.0, 0)+rec(790, 1.0, 0))
	late := write("late.jsonl", rec(1000, 1.5, 0)+rec(1010, 1.52, 0)+rec(990, 1.48, 0))
	// The failed run's numbers would read as a 10x speed-up if they were pooled.
	broken := write("broken.jsonl", rec(1000, 1.0, 0)+rec(1000, 1.0, 0)+rec(10000, 0.1, 3)+rec(10000, 0.1, 3)+rec(10000, 0.1, 3))

	var out bytes.Buffer
	if code, err := run(&out, bench, a, same); err != nil || code != 0 {
		t.Errorf("equal sets: exit %d, %v\n%s", code, err, out.String())
	}
	out.Reset()
	code, err := run(&out, bench, a, slow)
	if err != nil || code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 20%% throughput drop must exit 1 with a worse row: exit %d, %v\n%s", code, err, out.String())
	}
	out.Reset()
	code, err = run(&out, bench, a, late)
	if err != nil || code != 1 || !strings.Contains(out.String(), "ack_ms_p95") || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 50%% latency rise must exit 1 with a worse row: exit %d, %v\n%s", code, err, out.String())
	}
	out.Reset()
	code, err = run(&out, bench, a, broken)
	if err != nil || code != 1 || strings.Contains(out.String(), "better") || !strings.Contains(out.String(), "0 in A, 3 in B") {
		t.Errorf("failed candidate runs must exit 1, be counted and stay out of the medians: exit %d, %v\n%s", code, err, out.String())
	}
	out.Reset()
	code, err = run(&out, bench, broken, a)
	if err != nil || code != 1 || !strings.Contains(out.String(), "3 in A, 0 in B") {
		t.Errorf("failed base runs must be counted too: exit %d, %v\n%s", code, err, out.String())
	}
}
