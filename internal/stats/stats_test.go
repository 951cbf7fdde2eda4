package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSummary(t *testing.T) {
	var s Summary
	s.AddQuery(0, 2*time.Millisecond, 100, 5)
	s.AddQuery(1, 4*time.Millisecond, 300, 7)
	s.AddTimeout()
	if s.MeanCost() != 3*time.Millisecond {
		t.Fatalf("MeanCost = %v", s.MeanCost())
	}
	if s.MeanSize() != 200 {
		t.Fatalf("MeanSize = %d", s.MeanSize())
	}
	if s.TotalMatches() != 12 {
		t.Fatalf("TotalMatches = %d", s.TotalMatches())
	}
	if s.Timeouts != 1 {
		t.Fatalf("Timeouts = %d", s.Timeouts)
	}
	var empty Summary
	if empty.MeanCost() != 0 || empty.MeanSize() != 0 {
		t.Fatal("empty summary means must be 0")
	}
}

// TestSpeedup: the ratios are taken over the queries both summaries
// completed, never over each one's own set.
func TestSpeedup(t *testing.T) {
	var a, b Summary
	a.AddQuery(0, 1*time.Millisecond, 100, 0)
	a.AddQuery(1, 2*time.Millisecond, 0, 0)
	a.AddQuery(3, 900*time.Millisecond, 100, 0) // b censored query 3
	b.AddQuery(0, 3*time.Millisecond, 250, 0)
	b.AddQuery(1, 6*time.Millisecond, 50, 0)
	b.AddQuery(2, 1*time.Millisecond, 0, 0) // a censored query 2
	if faster, smaller, n := a.Speedup(&b); faster != 3 || smaller != 3 || n != 2 {
		t.Fatalf("Speedup = %vx faster, %vx smaller on %d, want 3, 3 on 2", faster, smaller, n)
	}
	var c Summary
	c.AddQuery(2, time.Millisecond, 0, 0)
	if faster, smaller, n := a.Speedup(&c); !math.IsNaN(faster) || !math.IsNaN(smaller) || n != 0 {
		t.Fatalf("unpaired: Speedup = %v, %v, %d, want NaN, NaN, 0", faster, smaller, n)
	}
	if _, smaller, n := b.Speedup(&c); !math.IsNaN(smaller) || n != 1 {
		t.Fatalf("zero sizes: smaller = %v on %d, want NaN on 1", smaller, n)
	}
}

func TestHistogram(t *testing.T) {
	h := NewSelectivityHistogram()
	for _, v := range []int64{0, 0, 5, 10, 11, 1000, 999_999_999} {
		h.Observe(v)
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d", h.Total())
	}
	// Buckets: 0 → 2; ≤10 → 2 (5, 10); ≤100 → 1 (11); ≤1k → 1; overflow → 1.
	want := []int64{2, 2, 1, 1, 0, 0, 0, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("Counts = %v, want %v", h.Counts, want)
		}
	}
	fr := h.Fractions()
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Fractions sum = %v", sum)
	}
	if !strings.Contains(h.String(), "<=0:2") {
		t.Fatalf("String() = %q", h.String())
	}
	if ef := NewHistogram([]int64{1}).Fractions(); ef[0] != 0 {
		t.Fatal("empty histogram fractions must be zero")
	}
}

func TestFormatters(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{2 * time.Second, "2s"},
		{1500 * time.Microsecond, "1.5ms"},
		{3 * time.Microsecond, "3us"},
		{512 * time.Nanosecond, "512ns"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
	bcases := []struct {
		n    int64
		want string
	}{
		{100, "100B"},
		{2048, "2KiB"},
		{3 << 20, "3MiB"},
		{5 << 30, "5GiB"},
	}
	for _, c := range bcases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}
