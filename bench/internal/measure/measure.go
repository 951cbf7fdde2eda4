// Package measure holds the benchmark's arithmetic: which percentile a
// sample supports, when an open-loop update is due, and the in-memory
// span record the layer replay writes out at exit.
package measure

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// percentiles are the tail percentiles the benchmark reports, ascending.
var percentiles = []float64{50, 90, 95, 99, 99.9}

// MinBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the value is one or two outliers, not a tail.
const MinBeyond = 10

// Supports reports whether n samples leave at least MinBeyond samples
// beyond percentile p.
func Supports(n int, p float64) bool {
	// The tolerance keeps 10000 samples supporting the p99.9: in floating
	// point 10000*(100-99.9)/100 is a hair under 10.
	return float64(n)*(100-p)/100 >= MinBeyond-1e-9
}

// HighestPercentile returns the highest reportable percentile for n
// samples, and false when not even the median is supported.
func HighestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentiles {
		if Supports(n, p) {
			best, ok = p, true
		}
	}
	return best, ok
}

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Quantile returns the nearest-rank percentile p of sorted (ascending)
// samples; 0 for an empty sample.
func Quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Median returns the median of xs (mean of the middle two for an even
// count); 0 for an empty sample.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := Sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Pacer is a fixed open-loop schedule: update i is due at Start + i/Rate.
// Due times come from i, never from the previous send, so a stall does
// not shift the schedule and its wait is charged to the updates it delays.
type Pacer struct {
	Start time.Time
	Rate  float64 // updates per second
}

// Due returns when update i (0-based) is due.
func (p Pacer) Due(i int) time.Time {
	return p.Start.Add(time.Duration(float64(i) / p.Rate * float64(time.Second)))
}

// DueBy returns how many of n updates are due at or before now.
func (p Pacer) DueBy(now time.Time, n int) int {
	el := now.Sub(p.Start)
	if el < 0 {
		return 0
	}
	k := int(el.Seconds()*p.Rate) + 1
	// Float rounding can put k one past an update whose Due is still
	// ahead; Due is the authority.
	for k > 0 && p.Due(k-1).After(now) {
		k--
	}
	for k < n && !p.Due(k).After(now) {
		k++
	}
	if k > n {
		k = n
	}
	return k
}

// Span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for a root); spans of one update batch share Batch.
type Span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// Trace collects spans in memory; nothing is written until WriteFile.
type Trace struct {
	t0    time.Time
	Spans []Span
}

// NewTrace starts an empty trace.
func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// Begin opens a span and returns its index.
func (t *Trace) Begin(name string, parent, batch int) int {
	t.Spans = append(t.Spans, Span{Name: name, Parent: parent, Batch: batch, Start: int64(time.Since(t.t0))})
	return len(t.Spans) - 1
}

// End closes span id and returns its duration.
func (t *Trace) End(id int) time.Duration {
	s := &t.Spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// WriteFile writes the spans as JSON lines.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans {
		if err := enc.Encode(s); err != nil {
			f.Close() //tf:unchecked-ok already failing; the encode error wins
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close() //tf:unchecked-ok already failing; the flush error wins
		return err
	}
	return f.Close()
}
