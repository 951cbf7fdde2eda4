package turboflux

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"turboflux/internal/stats"
)

// BenchmarkFanOutGrid measures multi-query fan-out over MultiEngine.Apply
// (windows of one) across the registered-query count and the fan-out pool
// size, in two label mixes: "disjoint", where query i watches its own edge
// label (label routing pays), and "shared", where every query watches
// label 0 (one shared sub-pattern; routing skips nothing). Either way an
// update engages one evaluation unit. Every query vertex requires label 0,
// which a quarter of the 2000 vertices carry: enumeration stays sparse, so
// dispatch rather than emission dominates. One op replays a fresh engine
// over a 100,000-update stream whose first tenth warms it up untimed.
// Reported per op: ns/update over the timed updates, p99_us of Apply
// sampled 1 in 8, and the pool's evals, skipped and pooled counts and the
// matches over the whole stream. Worker counts above GOMAXPROCS measure
// oversubscription.
func BenchmarkFanOutGrid(b *testing.B) {
	workers := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	slices.Sort(workers)
	workers = slices.Compact(workers)
	for _, mode := range []string{"disjoint", "shared"} {
		for _, queries := range []int{1, 2, 4, 8, 16} {
			label := func(i int) Label { return Label(i % queries) }
			if mode == "shared" {
				label = func(int) Label { return 0 }
			}
			ups := fanOutStream(label)
			for _, w := range workers {
				b.Run(fmt.Sprintf("mode=%s/queries=%d/workers=%d", mode, queries, w), func(b *testing.B) {
					benchFanOutCell(b, label, queries, w, ups)
				})
			}
		}
	}
}

const fanOutVertices = 2000

func benchFanOutCell(b *testing.B, label func(int) Label, queries, workers int, ups []Update) {
	warm, timed := ups[:len(ups)/10], ups[len(ups)/10:]
	lat := stats.NewLatency(0)
	var evals, skipped, pooled uint64
	var matches int64
	onMatch := func(bool, []VertexID) { matches++ }
	for range b.N {
		b.StopTimer()
		g := NewGraph()
		for v := VertexID(1); v <= fanOutVertices; v++ {
			g.EnsureVertex(v, Label(min(v%4, 1)))
		}
		m := NewMultiEngine(g)
		m.SetFanOutWorkers(workers)
		for i := 0; i < queries; i++ {
			q := NewQuery(3)
			for u := VertexID(0); u < 3; u++ {
				q.SetLabels(u, 0)
			}
			err := errors.Join(q.AddEdge(0, label(i), 1), q.AddEdge(1, label(i), 2))
			if err = errors.Join(err, m.Register(fmt.Sprintf("q%d", i), q, Options{OnMatch: onMatch})); err != nil {
				b.Fatal(err)
			}
		}
		for k, u := range ups {
			if k == len(warm) {
				b.StartTimer()
			}
			sampled := k >= len(warm) && k%8 == 0
			var t0 time.Time
			if sampled {
				t0 = time.Now()
			}
			if _, err := m.Apply(u); err != nil {
				b.Fatal(err)
			}
			if sampled {
				lat.Observe(time.Since(t0))
			}
		}
		b.StopTimer()
		fs := m.FanOutStats()
		evals, skipped, pooled = evals+fs.Evals, skipped+fs.Skipped, pooled+fs.Pooled
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(n*float64(len(timed))), "ns/update")
	b.ReportMetric(float64(lat.Percentile(99).Nanoseconds())/1e3, "p99_us")
	b.ReportMetric(float64(evals)/n, "evals/op")
	b.ReportMetric(float64(skipped)/n, "skipped/op")
	b.ReportMetric(float64(pooled)/n, "pooled/op")
	b.ReportMetric(float64(matches)/n, "matches/op")
}

// fanOutStream is a seeded 100,000-update edge stream with edge label
// label(k) at update k: every fifth update deletes a random live edge, and
// every insert adds an edge that is not live, so every update takes effect.
func fanOutStream(label func(int) Label) []Update {
	rng := rand.New(rand.NewSource(12345))
	var live []Edge
	isLive := make(map[Edge]bool)
	ups := make([]Update, 0, 100_000)
	for k := 0; k < cap(ups); k++ {
		if k%5 == 4 {
			i := rng.Intn(len(live))
			e := live[i]
			live[i], live = live[len(live)-1], live[:len(live)-1]
			delete(isLive, e)
			ups = append(ups, Delete(e.From, e.Label, e.To))
			continue
		}
		e := Edge{Label: label(k)}
		for e.From == 0 || isLive[e] {
			e.From, e.To = VertexID(1+rng.Intn(fanOutVertices)), VertexID(1+rng.Intn(fanOutVertices))
		}
		live, isLive[e] = append(live, e), true
		ups = append(ups, Insert(e.From, e.Label, e.To))
	}
	return ups
}
