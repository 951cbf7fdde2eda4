package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"turboflux"
	"turboflux/internal/stats"
)

// fanoutRow is one (mode, queries, workers) cell of the fan-out scaling
// grid.
type fanoutRow struct {
	// Mode is "disjoint" (query i watches its own edge label — the
	// many-signatures deployment, where label routing pays) or "shared"
	// (every query watches the same label — the worst case for routing,
	// pure pool scaling).
	Mode    string `json:"mode"`
	Queries int    `json:"queries"`
	Workers int    `json:"workers"`

	Updates     int     `json:"updates"`
	NsPerOp     float64 `json:"ns_per_op"`
	UpdatesPerS float64 `json:"updates_per_s"`
	P50Us       float64 `json:"p50_us"`
	P95Us       float64 `json:"p95_us"`
	P99Us       float64 `json:"p99_us"`
	Matches     int64   `json:"matches"`
	Evals       uint64  `json:"evals"`
	Skipped     uint64  `json:"skipped"`
	Pooled      uint64  `json:"pooled"`
	Batches     uint64  `json:"batches"`
	PoolBusyNs  uint64  `json:"pool_busy_ns"`
}

// fanoutReport is the BENCH_fanout.json document.
type fanoutReport struct {
	GOMAXPROCS int         `json:"gomaxprocs"`
	Updates    int         `json:"updates_per_cell"`
	Rows       []fanoutRow `json:"rows"`
	// Speedup8q4w is the headline acceptance number: disjoint-mode
	// fan-out throughput at 8 registered queries with 4 workers over the
	// same workload with workers=1 (every task inline on the caller).
	Speedup8q4w float64 `json:"speedup_8q_4w_vs_1w_disjoint"`
}

// runFanout measures multi-query fan-out scaling: per-update latency and
// throughput across worker-pool sizes and registered-query counts, in
// both disjoint-label and shared-label workloads.
func runFanout(out string, updates int) error {
	gmp := runtime.GOMAXPROCS(0)
	workerSet := dedupInts([]int{1, 2, 4, gmp})
	querySet := []int{1, 2, 4, 8, 16}
	rep := fanoutReport{GOMAXPROCS: gmp, Updates: updates}
	for _, mode := range []string{"disjoint", "shared"} {
		for _, q := range querySet {
			for _, w := range workerSet {
				// Best of 3 runs: each cell is only tens of milliseconds, so
				// a single GC pause or scheduler preemption can swing a run
				// by 30%; the fastest repetition is the least-disturbed one.
				var row fanoutRow
				for rep := 0; rep < 3; rep++ {
					r, err := fanoutCell(mode, q, w, updates)
					if err != nil {
						return err
					}
					if rep == 0 || r.UpdatesPerS > row.UpdatesPerS {
						row = r
					}
				}
				rep.Rows = append(rep.Rows, row)
				fmt.Printf("fanout %-8s queries=%-2d workers=%-2d  %9.0f ups/s  p50=%6.1fus p99=%6.1fus  evals=%d skipped=%d pooled=%d\n",
					mode, q, w, row.UpdatesPerS, row.P50Us, row.P99Us, row.Evals, row.Skipped, row.Pooled)
			}
		}
	}
	base := findFanoutRow(rep.Rows, "disjoint", 8, 1)
	fast := findFanoutRow(rep.Rows, "disjoint", 8, 4)
	if base != nil && fast != nil && base.UpdatesPerS > 0 {
		rep.Speedup8q4w = fast.UpdatesPerS / base.UpdatesPerS
	}
	fmt.Printf("fanout speedup (8 queries, disjoint, 4 workers vs 1): %.2fx\n", rep.Speedup8q4w)
	return writeJSON(out, rep)
}

// fanoutCell runs one grid cell: a fresh graph and engine, q registered
// 2-hop queries, and an insert/delete stream cycling over the query
// labels.
func fanoutCell(mode string, queries, workers, updates int) (fanoutRow, error) {
	// Typed vertices: a quarter carry the label the queries constrain
	// their vertices to, the rest are bystanders — the realistic shape
	// for signature workloads, and it keeps match enumeration sparse so
	// the per-update cost is dominated by evaluation dispatch (what this
	// experiment measures) rather than result emission.
	const nVertices = 2000
	g := turboflux.NewGraph()
	for v := turboflux.VertexID(1); v <= nVertices; v++ {
		if v%4 == 0 {
			g.EnsureVertex(v, 0)
		} else {
			g.EnsureVertex(v, 1)
		}
	}
	m := turboflux.NewMultiEngine(g)
	defer m.Close() //tf:unchecked-ok bench teardown
	m.SetFanOutWorkers(workers)

	var matches int64
	for i := 0; i < queries; i++ {
		l := turboflux.Label(i)
		if mode == "shared" {
			l = 0
		}
		q := turboflux.NewQuery(3)
		q.SetLabels(0, 0)
		q.SetLabels(1, 0)
		q.SetLabels(2, 0)
		if err := q.AddEdge(0, l, 1); err != nil {
			return fanoutRow{}, err
		}
		if err := q.AddEdge(1, l, 2); err != nil {
			return fanoutRow{}, err
		}
		err := m.Register(fmt.Sprintf("q%d", i), q, turboflux.Options{
			OnMatch: func(positive bool, _ []turboflux.VertexID) { matches++ },
		})
		if err != nil {
			return fanoutRow{}, err
		}
	}

	// Deterministic LCG edge stream, generated up front so the timed loop
	// measures Apply alone: ~1/5 deletes, every update effective (inserts
	// never duplicate a live edge, deletes always hit one) so no-op
	// shortcuts don't dilute the measurement.
	live := make([]turboflux.Edge, 0, updates)
	liveSet := make(map[turboflux.Edge]struct{}, updates)
	state := uint32(12345)
	next := func(n uint32) uint32 {
		state = state*1664525 + 1013904223
		return (state >> 8) % n
	}
	stream := make([]turboflux.Update, 0, updates)
	for k := 0; k < updates; k++ {
		if k%5 == 4 && len(live) > 0 {
			i := int(next(uint32(len(live))))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			delete(liveSet, e)
			stream = append(stream, turboflux.Delete(e.From, e.Label, e.To))
			continue
		}
		l := turboflux.Label(k % queries)
		if mode == "shared" {
			l = 0
		}
		e := turboflux.Edge{Label: l}
		for {
			e.From = turboflux.VertexID(next(nVertices) + 1)
			e.To = turboflux.VertexID(next(nVertices) + 1)
			if _, dup := liveSet[e]; !dup {
				break
			}
		}
		live = append(live, e)
		liveSet[e] = struct{}{}
		stream = append(stream, turboflux.Insert(e.From, e.Label, e.To))
	}

	// Warm up on the first tenth of the stream (DCG root edges, pool
	// spin-up, allocator steady state), then time the rest. Latency is
	// sampled 1-in-8 to keep clock reads off the hot loop.
	warm := len(stream) / 10
	for _, u := range stream[:warm] {
		if _, err := m.Apply(u); err != nil {
			return fanoutRow{}, err
		}
	}
	lat := stats.NewLatency(0)
	timed := stream[warm:]
	start := time.Now()
	for i, u := range timed {
		if i%8 == 0 {
			t0 := time.Now()
			if _, err := m.Apply(u); err != nil {
				return fanoutRow{}, err
			}
			lat.Observe(time.Since(t0))
			continue
		}
		if _, err := m.Apply(u); err != nil {
			return fanoutRow{}, err
		}
	}
	wall := time.Since(start)

	fs := m.FanOutStats()
	qs := lat.Quantiles(50, 95, 99)
	return fanoutRow{
		Mode:        mode,
		Queries:     queries,
		Workers:     workers,
		Updates:     len(timed),
		NsPerOp:     float64(wall.Nanoseconds()) / float64(len(timed)),
		UpdatesPerS: float64(len(timed)) / wall.Seconds(),
		P50Us:       float64(qs[0].Nanoseconds()) / 1e3,
		P95Us:       float64(qs[1].Nanoseconds()) / 1e3,
		P99Us:       float64(qs[2].Nanoseconds()) / 1e3,
		Matches:     matches,
		Evals:       fs.Evals,
		Skipped:     fs.Skipped,
		Pooled:      fs.Pooled,
		Batches:     fs.Batches,
		PoolBusyNs:  fs.BusyNs,
	}, nil
}

func findFanoutRow(rows []fanoutRow, mode string, queries, workers int) *fanoutRow {
	for i := range rows {
		r := &rows[i]
		if r.Mode == mode && r.Queries == queries && r.Workers == workers {
			return r
		}
	}
	return nil
}

func dedupInts(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
