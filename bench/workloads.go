package main

import "turboflux/bench/internal/inputs"

// workload is one named traffic mix. Every workload has the same run
// shape (set-up, paced open loop, saturating closed loop); they differ in
// inputs and topology only.
type workload struct {
	Name   string
	Why    string // one line, repeated in BENCHMARK.json
	Shards int    // 0: one turboflux-serve; n: turboflux-shard over n durable servers
	// Spec is the LSBench recipe. Holding back most of the triples keeps the
	// initial graph (and with it set-up time) small and leaves a stream long
	// enough to saturate on for the whole phase at the rate the workload
	// reaches.
	Spec inputs.Spec
	// The frozen query set as qlang patterns: SharedCopies registrations of
	// Shared (identical spanning trees, so the multi-query layer shares one
	// DCG), then one of each Distinct. They are constants for the same
	// reason PacedRate is: a random query's cost varies several-fold, so a
	// set re-drawn per seed would make rows from different seeds
	// incomparable. The seed still draws the graph and the stream they run
	// on.
	Shared       string
	SharedCopies int
	Distinct     []string
	// PacedRate is the frozen open-loop rate in updates/s: about a quarter
	// of what this workload's single-update path sustained, at the start of
	// the stream, at the commit that introduced the benchmark (both numbers
	// are in Why). The issue's "quarter of the saturate rate" would be half
	// of that capacity on serve-maintain and more than all of it behind the
	// coordinator. It is a constant, not re-derived per run, so latency at
	// this rate is comparable across commits; every traced run measures the
	// capacity again (server.single_path_per_s) and reports the share of it
	// the paced rate is (client.paced_load_share).
	PacedRate float64
	// MemoryMark is the update at whose acknowledgment rss_peak_mb is
	// read: the graph and the DCGs grow along the stream, so peak memory at
	// the end of a time-boxed run would rise with throughput. Frozen at
	// about 40-50 % of what the workload ingests in a run at the commit that
	// introduced the benchmark; a run that never gets there reports its
	// final peak.
	MemoryMark int
}

// sharedSpec is used by serve-shared and shard2-shared: identical inputs,
// so their difference is the coordinator tier alone.
var sharedSpec = inputs.Spec{Users: 20000, StreamFraction: 0.7, DeletionRate: 0.2}

// The frozen query sets (labels are LSBench's numeric vertex types and edge
// labels). They were picked once, at seed 2, from a seeded pool of 64
// size-4 tree queries by counted matches per update on a 10 000-update
// in-process prefix — never by time — under a work budget that censors
// explosive candidates: 0 < rate <= 0.2 for serve-maintain, 2..50 for
// serve-emit, 0.02..5 for the shared workloads. No two queries of
// serve-maintain share a spanning tree. The selection code is not kept;
// core.matches_per_update of a traced run shows whether a changed
// generator has moved a set out of its band.
var maintainQueries = []string{
	"(v0:6),(v1:3),(v2:1),(v3:0),(v4:0),(v1)-[:11]->(v0),(v2)-[:10]->(v0),(v1)-[:17]->(v3),(v1)-[:17]->(v4)",
	"(v0:4),(v1:0),(v2:0),(v3:3),(v4:2),(v1)-[:7]->(v0),(v2)-[:7]->(v0),(v0)-[:6]->(v3),(v2)-[:4]->(v4)",
	"(v0:5),(v1:0),(v2:0),(v3:3),(v4:4),(v1)-[:8]->(v0),(v1)-[:1]->(v2),(v3)-[:13]->(v2),(v4)-[:6]->(v3)",
	"(v0:1),(v1:5),(v2:6),(v3:2),(v4:1),(v1)-[:9]->(v0),(v0)-[:10]->(v2),(v3)-[:5]->(v0),(v3)-[:5]->(v4)",
	"(v0:0),(v1:3),(v2:0),(v3:3),(v4:6),(v1)-[:13]->(v0),(v1)-[:13]->(v2),(v3)-[:13]->(v2),(v3)-[:11]->(v4)",
	"(v0:1),(v1:0),(v2:2),(v3:0),(v4:3),(v1)-[:2]->(v0),(v2)-[:12]->(v1),(v3)-[:3]->(v0),(v4)-[:17]->(v3)",
	"(v0:2),(v1:0),(v2:0),(v3:0),(v4:0),(v1)-[:4]->(v0),(v2)-[:4]->(v0),(v3)-[:4]->(v0),(v0)-[:12]->(v4)",
	"(v0:5),(v1:0),(v2:0),(v3:0),(v4:2),(v1)-[:14]->(v0),(v2)-[:14]->(v0),(v3)-[:8]->(v0),(v3)-[:4]->(v4)",
	"(v0:4),(v1:3),(v2:0),(v3:0),(v4:3),(v0)-[:6]->(v1),(v1)-[:13]->(v2),(v1)-[:13]->(v3),(v0)-[:6]->(v4)",
	"(v0:0),(v1:5),(v2:1),(v3:6),(v4:0),(v0)-[:14]->(v1),(v1)-[:9]->(v2),(v2)-[:10]->(v3),(v4)-[:14]->(v1)",
	"(v0:5),(v1:0),(v2:0),(v3:1),(v4:2),(v1)-[:14]->(v0),(v2)-[:14]->(v0),(v0)-[:9]->(v3),(v4)-[:5]->(v3)",
	"(v0:0),(v1:4),(v2:0),(v3:0),(v4:4),(v0)-[:7]->(v1),(v2)-[:7]->(v1),(v3)-[:7]->(v1),(v2)-[:7]->(v4)",
	"(v0:5),(v1:1),(v2:0),(v3:0),(v4:3),(v0)-[:9]->(v1),(v2)-[:8]->(v0),(v3)-[:3]->(v1),(v4)-[:17]->(v2)",
	"(v0:4),(v1:3),(v2:0),(v3:3),(v4:0),(v0)-[:6]->(v1),(v1)-[:13]->(v2),(v0)-[:6]->(v3),(v4)-[:7]->(v0)",
	"(v0:1),(v1:5),(v2:1),(v3:2),(v4:0),(v1)-[:9]->(v0),(v2)-[:15]->(v1),(v3)-[:5]->(v2),(v4)-[:14]->(v1)",
	"(v0:5),(v1:0),(v2:0),(v3:1),(v4:0),(v1)-[:8]->(v0),(v2)-[:14]->(v0),(v3)-[:15]->(v0),(v1)-[:0]->(v4)",
}

var emitQueries = []string{
	"(v0:3),(v1:6),(v2:6),(v3:6),(v4:1),(v0)-[:11]->(v1),(v0)-[:11]->(v2),(v0)-[:11]->(v3),(v4)-[:10]->(v1)",
	"(v0:2),(v1:1),(v2:2),(v3:1),(v4:1),(v0)-[:5]->(v1),(v2)-[:5]->(v1),(v0)-[:5]->(v3),(v0)-[:5]->(v4)",
	"(v0:1),(v1:6),(v2:6),(v3:3),(v4:4),(v0)-[:10]->(v1),(v0)-[:10]->(v2),(v3)-[:11]->(v1),(v4)-[:6]->(v3)",
	"(v0:1),(v1:5),(v2:0),(v3:0),(v4:3),(v1)-[:9]->(v0),(v2)-[:8]->(v1),(v3)-[:8]->(v1),(v4)-[:13]->(v2)",
}

const sharedBase = "(v0:4),(v1:3),(v2:0),(v3:3),(v4:3),(v0)-[:6]->(v1),(v2)-[:7]->(v0),(v0)-[:6]->(v3),(v0)-[:6]->(v4)"

var sharedDistinct = []string{
	"(v0:6),(v1:3),(v2:3),(v3:0),(v4:0),(v1)-[:11]->(v0),(v2)-[:11]->(v0),(v2)-[:13]->(v3),(v2)-[:13]->(v4)",
	"(v0:6),(v1:1),(v2:0),(v3:4),(v4:3),(v1)-[:10]->(v0),(v2)-[:2]->(v1),(v2)-[:7]->(v3),(v4)-[:11]->(v0)",
	"(v0:1),(v1:0),(v2:0),(v3:2),(v4:1),(v1)-[:3]->(v0),(v2)-[:3]->(v0),(v3)-[:16]->(v1),(v2)-[:2]->(v4)",
	"(v0:1),(v1:5),(v2:1),(v3:0),(v4:2),(v1)-[:9]->(v0),(v1)-[:9]->(v2),(v3)-[:14]->(v1),(v4)-[:5]->(v2)",
	"(v0:5),(v1:0),(v2:0),(v3:3),(v4:4),(v1)-[:8]->(v0),(v1)-[:1]->(v2),(v3)-[:13]->(v2),(v4)-[:6]->(v3)",
	"(v0:6),(v1:3),(v2:1),(v3:0),(v4:0),(v1)-[:11]->(v0),(v2)-[:10]->(v0),(v1)-[:17]->(v3),(v1)-[:17]->(v4)",
	"(v0:2),(v1:0),(v2:5),(v3:1),(v4:1),(v1)-[:4]->(v0),(v1)-[:8]->(v2),(v3)-[:15]->(v2),(v2)-[:9]->(v4)",
	"(v0:4),(v1:0),(v2:0),(v3:3),(v4:2),(v1)-[:7]->(v0),(v2)-[:7]->(v0),(v0)-[:6]->(v3),(v2)-[:4]->(v4)",
}

var workloads = []workload{
	{
		Name:      "serve-maintain",
		Why:       "16 distinct low-match tree queries, a third of the stream deletions: parse, WAL, scheduler and DCG maintenance dominate; search, sharing, delivery idle. Paced 15000/s of ~55000/s single-path capacity",
		Spec:      inputs.Spec{Users: 36000, StreamFraction: 0.85, DeletionRate: 0.5},
		Distinct:  maintainQueries,
		PacedRate: 15000, MemoryMark: 700_000,
	},
	{
		Name:      "serve-emit",
		Why:       "4 queries emitting tens of matches per update: SubgraphSearch, emission replay, subscriber queues and *EVENT writes dominate; maintenance is small. Paced 8000/s of ~32000/s single-path capacity",
		Spec:      inputs.Spec{Users: 20000, StreamFraction: 0.7, DeletionRate: 0.1},
		Distinct:  emitQueries,
		PacedRate: 8000, MemoryMark: 160_000,
	},
	{
		Name:   "serve-shared",
		Why:    "32 queries, 24 sharing one spanning tree: mqo maintainer/member replay, label routing and fan-out; serve-maintain is its private-DCG counterpart. Paced 9000/s of ~39000/s single-path capacity",
		Spec:   sharedSpec,
		Shared: sharedBase, SharedCopies: 24,
		Distinct:  sharedDistinct,
		PacedRate: 9000, MemoryMark: 200_000,
	},
	{
		Name:   "shard2-shared",
		Why:    "serve-shared's inputs through turboflux-shard over 2 durable servers: coordinator, fanner, relay, 2nd connection layer (overhead on 2 cores, no speed-up). Paced 1500/s of ~6000/s single-path capacity",
		Shards: 2,
		Spec:   sharedSpec,
		Shared: sharedBase, SharedCopies: 24,
		Distinct:  sharedDistinct,
		PacedRate: 1500, MemoryMark: 200_000,
	},
}

// patterns returns the query set in registration order.
func (w workload) patterns() []string {
	var out []string
	for i := 0; i < w.SharedCopies; i++ {
		out = append(out, w.Shared)
	}
	return append(out, w.Distinct...)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
