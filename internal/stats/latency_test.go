package stats

import (
	"strings"
	"testing"
	"time"
)

func TestLatencyPercentiles(t *testing.T) {
	l := NewLatency(100)
	for i := 1; i <= 100; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	if l.Count() != 100 {
		t.Fatalf("Count = %d", l.Count())
	}
	if p := l.Percentile(50); p < 45*time.Millisecond || p > 55*time.Millisecond {
		t.Fatalf("p50 = %v", p)
	}
	if p := l.Percentile(99); p < 95*time.Millisecond {
		t.Fatalf("p99 = %v", p)
	}
	if l.Percentile(0) != time.Millisecond {
		t.Fatalf("p0 = %v", l.Percentile(0))
	}
	if l.Percentile(100) != 100*time.Millisecond {
		t.Fatalf("p100 = %v", l.Percentile(100))
	}
	if !strings.Contains(l.String(), "p50=") {
		t.Fatalf("String = %q", l.String())
	}
}

func TestLatencyEmptyAndReservoir(t *testing.T) {
	var empty Latency
	if empty.Percentile(50) != 0 {
		t.Fatal("empty percentile must be 0")
	}
	// Reservoir: the recorder must stay bounded and keep plausible values.
	l := NewLatency(64)
	for i := 0; i < 10_000; i++ {
		l.Observe(time.Duration(i%1000) * time.Microsecond)
	}
	if len(l.samples) != 64 {
		t.Fatalf("reservoir grew to %d", len(l.samples))
	}
	if l.Count() != 10_000 {
		t.Fatalf("Count = %d", l.Count())
	}
	p50 := l.Percentile(50)
	if p50 <= 0 || p50 >= time.Millisecond {
		t.Fatalf("reservoir p50 implausible: %v", p50)
	}
	if NewLatency(0).cap != 4096 {
		t.Fatal("default capacity not applied")
	}
}

// TestLatencyObserveN: a run of n operations counts n times at its mean,
// so one long run cannot stand for the tail of many single operations.
func TestLatencyObserveN(t *testing.T) {
	l := NewLatency(0)
	l.ObserveN(256*time.Microsecond, 256)
	for range 4 {
		l.Observe(3 * time.Microsecond)
	}
	l.ObserveN(time.Second, 0)
	if l.Count() != 260 {
		t.Fatalf("Count = %d, want 260", l.Count())
	}
	if p := l.Percentile(99); p != 3*time.Microsecond {
		t.Fatalf("p99 = %v, want the single operations' 3µs", p)
	}
	if p := l.Percentile(50); p != time.Microsecond {
		t.Fatalf("p50 = %v, want the run's mean 1µs", p)
	}
}
