package stats

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSummary(t *testing.T) {
	var s Summary
	s.AddQuery(2*time.Millisecond, 100, 5)
	s.AddQuery(4*time.Millisecond, 300, 7)
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
	var slow Summary
	slow.AddQuery(30*time.Millisecond, 0, 0)
	if sp := s.Speedup(&slow); sp != 10 {
		t.Fatalf("Speedup = %v, want 10", sp)
	}
	var empty Summary
	if !math.IsNaN(empty.Speedup(&slow)) {
		t.Fatal("Speedup of empty summary must be NaN")
	}
	if empty.MeanCost() != 0 || empty.MeanSize() != 0 {
		t.Fatal("empty summary means must be 0")
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
