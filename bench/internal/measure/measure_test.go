package measure

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // 9.5 samples beyond the median
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := HighestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("HighestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if Supports(199, 95) || !Supports(200, 95) {
		t.Errorf("Supports: the p95 needs exactly 200 samples for %d beyond it", MinBeyond)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := Sorted([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6})
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 100: 10, 1: 1} {
		if got := Quantile(xs, p); got != want {
			t.Errorf("Quantile(p%v) = %v, want %v", p, got, want)
		}
	}
	if Quantile(nil, 50) != 0 || Median(nil) != 0 {
		t.Error("empty samples must yield 0")
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median of an even count = %v, want 2.5", got)
	}
}

func TestPacerDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	p := Pacer{Start: start, Rate: 4000} // 250 µs apart
	if got := p.Due(0); !got.Equal(start) {
		t.Errorf("Due(0) = %v, want the start", got)
	}
	if got := p.Due(4000).Sub(start); got != time.Second {
		t.Errorf("Due(4000) = start+%v, want start+1s: due times must not drift", got)
	}
	if got := p.Due(3).Sub(start); got != 750*time.Microsecond {
		t.Errorf("Due(3) = start+%v, want 750µs", got)
	}
	// DueBy counts updates whose due time has been reached, and a stall
	// makes the whole backlog due at once instead of shifting the schedule.
	for _, c := range []struct {
		at   time.Duration
		n    int
		want int
	}{
		{-time.Millisecond, 10, 0},
		{0, 10, 1},
		{249 * time.Microsecond, 10, 1},
		{250 * time.Microsecond, 10, 2},
		{time.Second, 10000, 4001},
		{time.Second, 10, 10},
	} {
		if got := p.DueBy(start.Add(c.at), c.n); got != c.want {
			t.Errorf("DueBy(start+%v, %d) = %d, want %d", c.at, c.n, got, c.want)
		}
	}
	// An awkward rate: DueBy must agree with Due for every update.
	q := Pacer{Start: start, Rate: 3333}
	for i := 0; i < 5000; i++ {
		if got := q.DueBy(q.Due(i), 1<<30); got != i+1 {
			t.Fatalf("rate 3333: DueBy(Due(%d)) = %d, want %d", i, got, i+1)
		}
	}
}

func TestTraceRecordsSpans(t *testing.T) {
	tr := NewTrace()
	pass := tr.Begin("pass:layer", -1, -1)
	a := tr.Begin("layer", pass, 0)
	da := tr.End(a)
	b := tr.Begin("layer", pass, 1)
	tr.End(b)
	tr.End(pass)
	if len(tr.Spans) != 3 || tr.Spans[a].Parent != pass || tr.Spans[b].Batch != 1 || tr.Spans[pass].Parent != -1 {
		t.Fatalf("spans = %+v", tr.Spans)
	}
	if da != time.Duration(tr.Spans[a].End-tr.Spans[a].Start) || da < 0 {
		t.Errorf("End returned %v for span %+v", da, tr.Spans[a])
	}
	if tr.Spans[pass].Start > tr.Spans[a].Start || tr.Spans[pass].End < tr.Spans[b].End {
		t.Errorf("the pass span must enclose its batches: %+v", tr.Spans)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var first Span
	if len(lines) != 3 || json.Unmarshal([]byte(lines[0]), &first) != nil || first != tr.Spans[0] {
		t.Errorf("span file = %q", raw)
	}
}
