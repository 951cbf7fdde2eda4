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
// size, in three label mixes: "disjoint", where query i watches its own
// edge label (label routing pays), "shared", where every query is the same
// path on label 0 under its own work budget, which no update reaches (one
// shared sub-pattern whose followers replay their searches: a budget of
// its own keeps a copy from being a twin; routing skips nothing), and
// "distinct", where every query watches label 0 but has its own
// spanning-tree shape. Disjoint and shared engage one evaluation unit per
// update; distinct engages every query's unit, the only mix whose worker
// axis can hand units to the pool (pooled/op). Query vertices require label
// 0, which a quarter of the 2000 vertices carry (one vertex of the last
// four distinct queries requires label 1): enumeration stays sparse, so
// dispatch rather than emission dominates. One op replays a
// fresh engine over a 100,000-update stream whose first tenth warms it up
// untimed. Reported per op: ns/update over the timed updates, p99_us of
// Apply sampled 1 in 8, and the pool's evals, skipped and pooled counts
// and the matches over the whole stream. Worker counts above GOMAXPROCS
// measure oversubscription.
func BenchmarkFanOutGrid(b *testing.B) {
	workers := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	slices.Sort(workers)
	workers = slices.Compact(workers)
	for _, mode := range []string{"disjoint", "shared", "distinct"} {
		for _, queries := range []int{1, 2, 4, 8, 16} {
			label := func(int) Label { return 0 }
			budget := func(int) int64 { return 0 }
			shape, units := pathQuery, queries
			switch mode {
			case "disjoint":
				label = func(i int) Label { return Label(i % queries) }
			case "shared":
				units = 1
				budget = func(i int) int64 { return 1<<40 + int64(i) }
			case "distinct":
				shape = treeQuery
			}
			ups := fanOutStream(label)
			for _, w := range workers {
				b.Run(fmt.Sprintf("mode=%s/queries=%d/workers=%d", mode, queries, w), func(b *testing.B) {
					benchFanOutCell(b, func(i int) (*Query, error) { return shape(i, label(i)) }, budget, queries, units, w, ups)
				})
			}
		}
	}
}

const fanOutVertices = 2000

// pathQuery is the 3-vertex path 0 -l-> 1 -l-> 2, the same shape for every i.
func pathQuery(_ int, l Label) (*Query, error) {
	q := NewQuery(3)
	for u := VertexID(0); u < 3; u++ {
		q.SetLabels(u, 0)
	}
	return q, errors.Join(q.AddEdge(0, l, 1), q.AddEdge(1, l, 2))
}

// treeQuery is the i-th of 16 distinct 3-vertex trees on edge label l:
// centre i/4 % 3 joined to the other two vertices, the two edges'
// directions taken from i's low bits, and from i = 12 on vertex 2 requiring
// label 1 instead of 0. Distinct trees never share a sub-pattern.
func treeQuery(i int, l Label) (*Query, error) {
	q := NewQuery(3)
	for u := VertexID(0); u < 3; u++ {
		q.SetLabels(u, 0)
	}
	if i >= 12 {
		q.SetLabels(2, 1)
	}
	c := VertexID(i / 4 % 3)
	var err error
	for k, v := range []VertexID{(c + 1) % 3, (c + 2) % 3} {
		from, to := c, v
		if i>>k&1 == 1 {
			from, to = to, from
		}
		err = errors.Join(err, q.AddEdge(from, l, to))
	}
	return q, err
}

// benchFanOutCell registers queries built by shape under their budgets,
// checks they form units sub-patterns and no twins, and replays ups.
func benchFanOutCell(b *testing.B, shape func(int) (*Query, error), budget func(int) int64, queries, units, workers int, ups []Update) {
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
			q, err := shape(i)
			if err = errors.Join(err, m.Register(fmt.Sprintf("q%d", i), q, Options{OnMatch: onMatch, WorkBudget: budget(i)})); err != nil {
				b.Fatal(err)
			}
		}
		if st := m.MQOStats(); st.SubPatterns != units || st.Twins != 0 {
			b.Fatalf("%d queries form %d sub-patterns with %d twins, want %d and none", queries, st.SubPatterns, st.Twins, units)
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
