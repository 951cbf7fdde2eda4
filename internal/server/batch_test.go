package server

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"turboflux"
)

// batchWorkload builds a deterministic update mix over 10 bootstrapped
// vertices: edge churn on the "knows"/"likes" labels plus occasional
// fresh vertex declarations (the batch scheduler's solo path) and deletes
// of absent edges (its no-op path).
func batchWorkload() []turboflux.Update {
	const nVertices = 10
	rng := rand.New(rand.NewSource(42))
	var ups []turboflux.Update
	next := turboflux.VertexID(nVertices + 1)
	for len(ups) < 160 {
		hi := int(next) - 1
		l := turboflux.Label(rng.Intn(2)) // knows or likes
		from := turboflux.VertexID(1 + rng.Intn(hi))
		to := turboflux.VertexID(1 + rng.Intn(hi))
		switch r := rng.Float64(); {
		case r < 0.06:
			ups = append(ups, turboflux.DeclareVertex(next, 0))
			next++
		case r < 0.75:
			ups = append(ups, turboflux.Insert(from, l, to))
		default:
			ups = append(ups, turboflux.Delete(from, l, to))
		}
	}
	return ups
}

// runServerBatchWorkload drives one server with the workload and returns
// the subscriber's per-query transcripts plus the final STATS lines.
// batchSize 1 means per-update i/d/v requests; larger sizes send BATCH
// (or BATCHB) frames of that many updates.
func runServerBatchWorkload(t *testing.T, workers, batchSize int, binary bool) (map[string][]transcriptEntry, StatsPayload) {
	t.Helper()
	vdict := turboflux.NewDict()
	vdict.Intern("P")
	edict := turboflux.NewDict()
	edict.Intern("knows")
	edict.Intern("likes")
	var boot []turboflux.Update
	for v := turboflux.VertexID(1); v <= 10; v++ {
		boot = append(boot, turboflux.DeclareVertex(v, 0))
	}
	_, addr := startServer(t, Options{
		Slow:          PolicyBlock,
		QueueDepth:    256,
		VertexLabels:  vdict,
		EdgeLabels:    edict,
		BootstrapFrom: bootText(t, boot),
		FanOutWorkers: workers,
	})

	admin := dialTest(t, addr)
	// Registration order is part of the emission order within an update,
	// so it must be fixed across runs. knows2rev names its variables the
	// other way round and parses to knows2's query, as does knows2copy:
	// both are knows2's twins.
	for _, reg := range []struct{ name, pattern string }{
		{"knows2", "(a:P)-[:knows]->(b:P)"},
		{"likes2", "(a:P)-[:likes]->(b:P)"},
		{"knows2rev", "(b:P)-[:knows]->(a:P)"},
		{"knows2copy", "(a:P)-[:knows]->(b:P)"},
	} {
		if err := admin.Register(reg.name, reg.pattern); err != nil {
			t.Fatalf("register %s: %v", reg.name, err)
		}
	}
	sub := dialTest(t, addr)
	for _, name := range []string{"knows2", "likes2", "knows2rev", "knows2copy"} {
		if _, err := sub.Subscribe(name); err != nil {
			t.Fatalf("subscribe %s: %v", name, err)
		}
	}

	ups := batchWorkload()
	var want int64
	if batchSize <= 1 {
		for i, u := range ups {
			ack, err := admin.Apply(u)
			if err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
			want += ack.Total
		}
	} else {
		for off := 0; off < len(ups); off += batchSize {
			end := off + batchSize
			if end > len(ups) {
				end = len(ups)
			}
			var back BatchAck
			var err error
			if binary {
				back, err = admin.BatchBinary(ups[off:end])
			} else {
				back, err = admin.Batch(ups[off:end])
			}
			if err != nil {
				t.Fatalf("batch at %d: %v", off, err)
			}
			if back.Applied != end-off {
				t.Fatalf("batch at %d: applied %d of %d", off, back.Applied, end-off)
			}
			want += back.Total
		}
	}
	if want == 0 {
		t.Fatal("workload produced no matches; nothing to compare")
	}

	got := map[string][]transcriptEntry{}
	var n int64
	timeout := time.After(10 * time.Second)
	for n < want {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatalf("event stream closed after %d/%d events: %v", n, want, sub.Err())
			}
			if ev.Evicted {
				t.Fatalf("evicted from %s under block policy", ev.Query)
			}
			sign := byte('+')
			if !ev.Positive {
				sign = '-'
			}
			got[ev.Query] = append(got[ev.Query], transcriptEntry{
				seq: ev.Seq, sign: sign, mapping: mappingKey(ev.Mapping)})
			n++
		case <-timeout:
			t.Fatalf("%d/%d events after 10s", n, want)
		}
	}
	select {
	case ev := <-sub.Events():
		t.Fatalf("unexpected extra event %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}

	st, err := admin.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return got, st
}

// comparableStats filters STATS down to the lines and fields that must be
// identical between a BATCH run and its per-update equivalent: the server
// sequencing counters, the per-query match counters and apply_latency's
// sample count (one per update however updates group into runs; its
// quantiles are wall-clock timing). The sub lines carry
// pump-timing-dependent queue depths; the fanout line mixes equivalent fields (evals, skipped) with
// ones batching legitimately changes (batches, pooled, busy_ns), so it is
// reduced to the equivalent fields only when requested. The mqo line is
// reduced to its structural fields (subpats, shared, refs, twins) — the
// maintain/saved/replays counters depend on how updates group into runs
// (the batch scheduler maintains a sub-pattern only for the updates it
// routes to it, the sequential path for every update).
func comparableStats(t *testing.T, st StatsPayload, fanout bool) []string {
	t.Helper()
	var out []string
	for _, l := range st {
		switch l.Kind {
		case "sub":
		case "apply_latency":
			out = append(out, fmt.Sprintf("apply_latency n=%d", stat(t, l.Uint, "n")))
		case "mqo":
			out = append(out, fmt.Sprintf("mqo subpats=%d shared=%d refs=%d twins=%d",
				stat(t, l.Uint, "subpats"), stat(t, l.Uint, "shared"), stat(t, l.Uint, "refs"), stat(t, l.Uint, "twins")))
		case "fanout":
			if fanout {
				out = append(out, fmt.Sprintf("fanout workers=%d evals=%d skipped=%d",
					stat(t, l.Uint, "workers"), stat(t, l.Uint, "evals"), stat(t, l.Uint, "skipped")))
			}
		default:
			out = append(out, l.String())
		}
	}
	return out
}

// TestServerBatchEquivalence pins the serving contract for BATCH frames:
// a BATCH (and BATCHB) frame must produce exactly the subscriber
// transcript — same events, same per-update sequence stamps, same order —
// and the same STATS counters as the equivalent sequence of i/d/v
// requests, at both worker counts. The fan-out routing counters are
// compared at workers=4 only: the per-update workers=1 path evaluates
// every engine sequentially and never routes, so evals/skipped
// legitimately differ there.
func TestServerBatchEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fanout := workers > 1
			wantTr, wantLines := runServerBatchWorkload(t, workers, 1, false)
			wantStats := comparableStats(t, wantLines, fanout)
			if twins := stat(t, wantLines.Line("mqo").Uint, "twins"); twins != 2 {
				t.Fatalf("STATS mqo twins=%d, want 2: knows2rev and knows2copy copy knows2", twins)
			}
			for _, run := range []struct {
				name      string
				batchSize int
				binary    bool
			}{
				{"BATCH/64", 64, false},
				{"BATCHB/64", 64, true},
			} {
				gotTr, gotLines := runServerBatchWorkload(t, workers, run.batchSize, run.binary)
				for name, want := range wantTr {
					gotEntries := gotTr[name]
					if len(gotEntries) != len(want) {
						t.Fatalf("%s query %s: %d events, want %d", run.name, name, len(gotEntries), len(want))
					}
					for k := range want {
						if gotEntries[k] != want[k] {
							t.Fatalf("%s query %s event %d: got %v, want %v",
								run.name, name, k, gotEntries[k], want[k])
						}
					}
				}
				for name := range gotTr {
					if _, ok := wantTr[name]; !ok {
						t.Fatalf("%s: unexpected events for query %s", run.name, name)
					}
				}
				gotStats := comparableStats(t, gotLines, fanout)
				if len(gotStats) != len(wantStats) {
					t.Fatalf("%s: %d comparable STATS lines, want %d:\n%s\nvs\n%s",
						run.name, len(gotStats), len(wantStats),
						strings.Join(gotStats, "\n"), strings.Join(wantStats, "\n"))
				}
				for i := range wantStats {
					if gotStats[i] != wantStats[i] {
						t.Fatalf("%s STATS line %d:\n  got:  %s\n  want: %s",
							run.name, i, gotStats[i], wantStats[i])
					}
				}
			}
		})
	}
}

// TestApplyLatencyCountsUpdates: the apply-latency reservoir takes one
// sample per update, so a BATCHB frame of 256 and 4 single lines read
// n=260, not one sample per run.
func TestApplyLatencyCountsUpdates(t *testing.T) {
	_, addr := startServer(t, Options{})
	c := dialTest(t, addr)
	ups := make([]turboflux.Update, 256)
	for i := range ups {
		ups[i] = turboflux.Insert(turboflux.VertexID(i), 0, turboflux.VertexID(i+1))
	}
	if _, err := c.BatchBinary(ups); err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		if _, err := c.Insert(turboflux.VertexID(1000+i), 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n := stat(t, st.Line("apply_latency").Uint, "n"); n != 260 {
		t.Fatalf("apply_latency n=%d, want 260: one sample per update", n)
	}
}
