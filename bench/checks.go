package main

import (
	"fmt"
	"sort"
	"strings"

	"turboflux/bench/internal/inputs"
	"turboflux/internal/graph"
	"turboflux/internal/graphflow"
	"turboflux/internal/stream"
)

// verdict is the outcome of the output checks: how many updates count as
// failed, and every violated invariant in words.
type verdict struct {
	failed     int
	violations []string
}

func (v *verdict) fail(updates int, format string, args ...any) {
	if updates < 1 {
		updates = 1
	}
	v.failed += updates
	v.violations = append(v.violations, fmt.Sprintf(format, args...))
}

// check holds every run to the serving contract: contiguous ack
// sequence numbers, per-subscription event order, every acknowledged match
// delivered exactly once and agreeing with the servers' own counters, no
// drops or evictions, a drained backlog, and the leading updates' match
// deltas equal to an independent engine's.
func check(o *observed, st sysStats, servers int, in *inputs.Inputs) verdict {
	var v verdict
	// The counters below come from STATS: one the servers no longer print
	// must fail the run, not pass as zero.
	if st.serverLines != servers {
		v.fail(1, "STATS gave %d server lines for %d servers", st.serverLines, servers)
	}
	if len(st.missing) > 0 {
		keys := make([]string, 0, len(st.missing))
		for k := range st.missing {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		v.fail(len(keys), "STATS/SHARDSTATS lines lack counters the benchmark reads: %s", strings.Join(keys, ", "))
	}
	if o.refused > 0 {
		v.fail(o.refused, "%d updates answered -ERR", o.refused)
	}
	if o.seqGaps > 0 {
		v.fail(o.seqGaps, "%d acknowledgments out of sequence", o.seqGaps)
	}
	if o.pacedLate > 0 {
		v.fail(o.pacedLate, "%d paced updates unacknowledged %s after the last send", o.pacedLate, drainLimit)
	}
	if o.pacedEvLag {
		v.fail(1, "paced events still undelivered %s after the last acknowledgment", drainLimit)
	}
	ev := o.ev
	if ev.disorder > 0 {
		v.fail(ev.disorder, "%d events arrived with a sequence number below their subscription's previous one", ev.disorder)
	}
	if ev.stray > 0 {
		v.fail(ev.stray, "%d events named an unknown query or update", ev.stray)
	}
	if ev.evicted {
		v.fail(1, "a subscription was evicted")
	}
	if st.dropped != 0 || st.evicted != 0 {
		v.fail(int(st.dropped+st.evicted), "servers report dropped=%g evicted=%g", st.dropped, st.evicted)
	}

	// Every acknowledged match was delivered exactly once: per paced
	// update, per saturate frame, and in total.
	mismatched := 0
	for i := 0; i < o.pacedN; i++ {
		if int64(ev.count[i]) != o.ackTotal[i] {
			mismatched++
		}
	}
	lo := o.pacedN
	for _, hi := range o.frameEnds {
		var got int64
		for _, c := range ev.count[lo:hi] {
			got += int64(c)
		}
		if got != o.ackTotal[lo] {
			mismatched += hi - lo
		}
		lo = hi
	}
	if mismatched > 0 {
		v.fail(mismatched, "%d updates whose delivered events differ from their acknowledged match count (missing or duplicate events)", mismatched)
	}
	for qi, name := range in.Names {
		if want, ok := st.queryMatches[name]; !ok {
			v.fail(1, "query %s: no STATS query line", name)
		} else if want != ev.perQuery[qi] {
			v.fail(1, "query %s: %d events delivered, servers count %d matches", name, ev.perQuery[qi], want)
		}
	}

	if bad := oracleMismatches(ev.oracle, in); bad > 0 {
		v.fail(bad, "%d of the first %d updates differ from Graphflow's per-query match deltas", bad, len(ev.oracle))
	}
	return v
}

// oracleMismatches replays the leading updates through one Graphflow
// engine per query and counts the updates whose per-query match deltas
// differ from the delivered events. The engines share one copy of the
// initial graph: graphflow.Engine applies each update to its graph itself,
// so between engines the edge is put back to the state the next one
// expects.
func oracleMismatches(got [][]int32, in *inputs.Inputs) int {
	g := in.Dataset.Graph.Clone()
	engines := make([]*graphflow.Engine, len(in.Queries))
	for i, q := range in.Queries {
		e, err := graphflow.New(g, q, graphflow.Options{})
		if err != nil {
			return len(got)
		}
		engines[i] = e
	}
	bad := 0
	for k, u := range in.Dataset.Stream[:len(got)] {
		want := oracleDeltas(g, engines, u)
		for qi := range engines {
			if int64(got[k][qi]) != want[qi] {
				bad++
				break
			}
		}
	}
	return bad
}

func oracleDeltas(g *graph.Graph, engines []*graphflow.Engine, u stream.Update) []int64 {
	out := make([]int64, len(engines))
	e := u.Edge
	present := g.HasEdge(e.From, e.Label, e.To)
	if u.Op == stream.OpInsert && present || u.Op == stream.OpDelete && !present || u.Op == stream.OpVertex {
		return out // no-op for every engine
	}
	last := len(engines) - 1
	for i, eng := range engines {
		// An unbounded Graphflow engine returns no error on edge updates.
		out[i], _ = eng.Apply(u)
		if i == last {
			break
		}
		if u.Op == stream.OpInsert {
			g.DeleteEdge(e.From, e.Label, e.To)
		} else {
			g.InsertEdge(e.From, e.Label, e.To)
		}
	}
	return out
}
