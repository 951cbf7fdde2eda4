package main

import (
	"reflect"
	"testing"

	"turboflux/bench/internal/inputs"
	"turboflux/bench/internal/measure"
	"turboflux/bench/internal/wire"
)

func TestQuietQuantile(t *testing.T) {
	// 12000 samples in send order: flat at 1 ms except one 1000-sample
	// stall at 50 ms. The plain p95 is set by the stall; the quiet one is
	// not.
	var xs []float64
	for i := 0; i < 12000; i++ {
		v := 1.0
		if i >= 5000 && i < 6000 {
			v = 50
		}
		xs = append(xs, v)
	}
	if got := measure.Quantile(measure.Sorted(xs), 95); got != 50 {
		t.Fatalf("plain p95 = %v, want the stall's 50", got)
	}
	if got := quietQuantile(xs, 95); got != 1 {
		t.Errorf("quietQuantile p95 = %v, want 1: one stall must move one chunk, not the metric", got)
	}
	// A slowdown of every update moves the quietest chunk too.
	slow := make([]float64, len(xs))
	for i, v := range xs {
		slow[i] = v * 1.5
	}
	if got := quietQuantile(slow, 95); got != 1.5 {
		t.Errorf("quietQuantile p95 of a uniformly slower run = %v, want 1.5", got)
	}
	// Chunks never get smaller than five times what the percentile needs:
	// 1500 samples make one p95 chunk, so the result is the plain p95.
	short := xs[4500:6000] // 500 fast, 1000 stalled
	if got, want := quietQuantile(short, 95), measure.Quantile(measure.Sorted(short), 95); got != want {
		t.Errorf("quietQuantile on %d samples = %v, want the plain %v", len(short), got, want)
	}
	if got := quietQuantile(nil, 50); got != 0 {
		t.Errorf("quietQuantile(nil) = %v", got)
	}
}

func TestQueryIndex(t *testing.T) {
	for name, want := range map[string]int{"q00": 0, "q07": 7, "q31": 31, "q32": -1, "q7": -1, "x07": -1, "q0a": -1} {
		if got := queryIndex([]byte(name), 32); got != want {
			t.Errorf("queryIndex(%q) = %d, want %d", name, got, want)
		}
	}
}

func TestWorkloadTable(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		if seen[w.Name] || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: names are unique and the why is one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
		if n := len(w.patterns()); n == 0 || n > 100 {
			t.Errorf("workload %q: %d frozen patterns (names are q00..q99)", w.Name, n)
		}
		if _, err := inputs.Build(inputs.Spec{Users: 50}, w.patterns(), 1); err != nil {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
	a, _ := findWorkload("serve-shared")
	b, _ := findWorkload("shard2-shared")
	if a.Spec != b.Spec || !reflect.DeepEqual(a.patterns(), b.patterns()) {
		t.Error("shard2-shared must run serve-shared's exact inputs")
	}
}

// A STATS key the servers no longer print must be noticed, not read as a
// zero counter that passes the dropped=evicted=0 check.
func TestMissingStatsKeysAreNoticed(t *testing.T) {
	st := sysStats{queryMatches: map[string]int64{}, missing: map[string]bool{}}
	st.addServer(wire.ParseLines([]string{
		"server conns=2 events=40 lost=0 evicted=0", // dropped renamed
		"query q00 pos=3 neg=1",
		"query q01 pos=x neg=1", // not a number
	}))
	if !st.missing["server dropped"] || !st.missing["query pos"] || len(st.missing) != 2 {
		t.Errorf("missing = %v, want server dropped and query pos", st.missing)
	}
	if st.serverLines != 1 || st.events != 40 || st.queryMatches["q00"] != 4 {
		t.Errorf("parsed %+v", st)
	}
}
