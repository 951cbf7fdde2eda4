// Package stats provides the measurement primitives used by the experiment
// harness: per-cell summaries of incremental-matching cost and
// intermediate-result size, and the selectivity histograms of Appendix C.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary aggregates per-query results of one experimental cell (e.g. "tree
// queries of size 6 on LSBench for engine X").
type Summary struct {
	Costs    []time.Duration // per-query cost(M(Δg,q))
	Sizes    []int64         // per-query peak intermediate-result size (bytes)
	Matches  []int64         // per-query positive+negative match count
	Timeouts int             // queries censored at the timeout

	queries []int // per-query position in the cell's query set (Speedup)
}

// AddQuery records one completed run of query i of the cell's set.
func (s *Summary) AddQuery(i int, cost time.Duration, size int64, matches int64) {
	s.queries = append(s.queries, i)
	s.Costs = append(s.Costs, cost)
	s.Sizes = append(s.Sizes, size)
	s.Matches = append(s.Matches, matches)
}

// AddTimeout records one censored query.
func (s *Summary) AddTimeout() { s.Timeouts++ }

// MeanCost returns the average cost across completed queries.
func (s *Summary) MeanCost() time.Duration {
	if len(s.Costs) == 0 {
		return 0
	}
	var t time.Duration
	for _, c := range s.Costs {
		t += c
	}
	return t / time.Duration(len(s.Costs))
}

// MeanSize returns the average intermediate-result size across completed
// queries.
func (s *Summary) MeanSize() int64 {
	if len(s.Sizes) == 0 {
		return 0
	}
	var t int64
	for _, sz := range s.Sizes {
		t += sz
	}
	return t / int64(len(s.Sizes))
}

// TotalMatches sums match counts across completed queries.
func (s *Summary) TotalMatches() int64 {
	var t int64
	for _, m := range s.Matches {
		t += m
	}
	return t
}

// Speedup compares s with other over the n queries both completed: means
// over different query sets would set one engine's easy queries against
// the other's hard ones. faster is other's summed cost over s's, smaller
// other's summed intermediate-result size over s's; a ratio with a zero
// sum is NaN, as both are when n is 0.
func (s *Summary) Speedup(other *Summary) (faster, smaller float64, n int) {
	at := make(map[int]int, len(other.queries))
	for j, q := range other.queries {
		at[q] = j
	}
	var cost, size [2]float64 // s's, other's
	for i, q := range s.queries {
		if j, ok := at[q]; ok {
			n++
			cost[0], cost[1] = cost[0]+float64(s.Costs[i]), cost[1]+float64(other.Costs[j])
			size[0], size[1] = size[0]+float64(s.Sizes[i]), size[1]+float64(other.Sizes[j])
		}
	}
	return ratio(cost[1], cost[0]), ratio(size[1], size[0]), n
}

func ratio(a, b float64) float64 {
	if a == 0 || b == 0 {
		return math.NaN()
	}
	return a / b
}

// Histogram is the Appendix C selectivity histogram: counts of queries
// whose positive-match totals fall into fixed ranges. The paper uses eight
// ranges; bounds are the inclusive upper limits of the first seven buckets,
// with an implicit +inf bucket at the end.
type Histogram struct {
	Bounds []int64
	Counts []int64
}

// NewSelectivityHistogram returns the eight-range histogram used in
// Figure 17: 0, ≤10, ≤100, ≤1k, ≤10k, ≤100k, ≤1M, >1M.
func NewSelectivityHistogram() *Histogram {
	return NewHistogram([]int64{0, 10, 100, 1000, 10_000, 100_000, 1_000_000})
}

// NewHistogram returns a histogram with the given sorted inclusive upper
// bounds plus a final overflow bucket.
func NewHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{Bounds: b, Counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	for i, b := range h.Bounds {
		if v <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Counts)-1]++
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Fractions returns each bucket's share of the total (zeros when empty).
func (h *Histogram) Fractions() []float64 {
	t := h.Total()
	out := make([]float64, len(h.Counts))
	if t == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(t)
	}
	return out
}

// String renders the histogram as "(<=b: n)" pairs.
func (h *Histogram) String() string {
	var sb strings.Builder
	for i, b := range h.Bounds {
		fmt.Fprintf(&sb, "<=%d:%d ", b, h.Counts[i])
	}
	fmt.Fprintf(&sb, ">%d:%d", h.Bounds[len(h.Bounds)-1], h.Counts[len(h.Counts)-1])
	return sb.String()
}

// FormatDuration renders d with three significant digits and an adaptive
// unit, matching the tables printed by the harness.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3gs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3gms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.3gus", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

// FormatBytes renders a byte count with an adaptive binary unit.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.3gGiB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.3gMiB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.3gKiB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
