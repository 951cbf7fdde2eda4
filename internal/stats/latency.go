package stats

import (
	"fmt"
	"sort"
	"time"
)

// Latency records per-operation durations and reports percentiles — used
// by the harness to characterize the tail of cost(M(Δo,q)) per update,
// which the paper's aggregate means hide. Reservoir sampling keeps memory
// bounded on long streams while preserving an unbiased sample.
type Latency struct {
	samples []time.Duration
	seen    int64
	cap     int
	rng     uint64
}

// NewLatency returns a recorder keeping at most capacity samples
// (reservoir-sampled once the stream exceeds it). capacity <= 0 selects
// a default of 4096.
func NewLatency(capacity int) *Latency {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Latency{cap: capacity, rng: 0x9e3779b97f4a7c15}
}

// Observe records one operation duration.
func (l *Latency) Observe(d time.Duration) {
	l.seen++
	if len(l.samples) < l.cap {
		l.samples = append(l.samples, d)
		return
	}
	// Reservoir replacement with a splitmix-style generator (deterministic,
	// no global rand dependency).
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	if i := int64(l.rng % uint64(l.seen)); i < int64(l.cap) {
		l.samples[i] = d
	}
}

// ObserveN records n operations that took d together as n samples of d/n,
// so a run of n operations weighs n times at its mean duration rather than
// once at its total.
func (l *Latency) ObserveN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	per := d / time.Duration(n)
	for range n {
		l.Observe(per)
	}
}

// Count returns the number of observed operations.
func (l *Latency) Count() int64 { return l.seen }

// Percentile returns the p-th percentile (0 < p <= 100) of the sampled
// durations; 0 when empty.
func (l *Latency) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), l.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	idx := int(float64(len(s))*p/100+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Quantiles returns the given percentiles in one pass over a single sorted
// copy of the sample — cheaper than repeated Percentile calls when a
// caller (the server's STATS command, the serve benchmark report) wants
// several cuts of the same distribution.
func (l *Latency) Quantiles(ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(l.samples) == 0 {
		return out
	}
	s := append([]time.Duration(nil), l.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for k, p := range ps {
		switch {
		case p <= 0:
			out[k] = s[0]
		case p >= 100:
			out[k] = s[len(s)-1]
		default:
			idx := int(float64(len(s))*p/100+0.5) - 1
			if idx < 0 {
				idx = 0
			}
			if idx >= len(s) {
				idx = len(s) - 1
			}
			out[k] = s[idx]
		}
	}
	return out
}

// String renders p50/p95/p99 compactly.
func (l *Latency) String() string {
	return fmt.Sprintf("p50=%s p95=%s p99=%s (n=%d)",
		FormatDuration(l.Percentile(50)),
		FormatDuration(l.Percentile(95)),
		FormatDuration(l.Percentile(99)),
		l.seen)
}
