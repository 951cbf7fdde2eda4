// Network-intrusion monitoring, the paper's cyber-security scenario
// (Section 1): worm spread is modeled as a fan-out pattern — one host
// opens SSH connections to two different hosts which each immediately
// open SSH connections onward. The monitor runs over a Netflow-like
// traffic stream (unlabeled hosts, eight protocol edge labels,
// heavy-tailed host popularity), the label-poor regime of the paper's
// Netflow experiments.
//
// Run with: go run ./examples/netmonitor
package main

import (
	"fmt"
	"log"

	"turboflux"
	"turboflux/internal/workload"
)

func main() {
	// Synthetic traffic substitute for the CAIDA traces (DESIGN.md §4).
	ds := workload.Netflow(workload.NetflowConfig{
		Hosts:          800,
		Triples:        12000,
		StreamFraction: 0.25,
		Seed:           11,
	})

	// Worm pattern: u0 -ssh-> u1 -ssh-> u2 and u0 -ssh-> u3 -ssh-> u4,
	// a two-branch propagation tree. No vertex labels exist in Netflow.
	ssh := workload.FlowSSH
	q := turboflux.NewQuery(5)
	must(q.AddEdge(0, ssh, 1))
	must(q.AddEdge(1, ssh, 2))
	must(q.AddEdge(0, ssh, 3))
	must(q.AddEdge(3, ssh, 4))

	alerts := 0
	eng, err := turboflux.NewEngine(ds.Graph, q, turboflux.Options{
		Semantics: turboflux.Isomorphism,
		OnMatch: func(positive bool, m []turboflux.VertexID) {
			if positive {
				alerts++
				if alerts <= 5 {
					fmt.Printf("ALERT: possible worm at host %d (spread: %d->%d, %d->%d)\n",
						m[0], m[1], m[2], m[3], m[4])
				}
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	existing := eng.InitialMatches()
	fmt.Printf("baseline: %d pattern instances already in the trace\n", existing)

	if _, err := eng.ApplyBatch(ds.Stream); err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("monitored %d flow updates: %d new alerts (%d shown), DCG %d edges (%s used as index)\n",
		len(ds.Stream), st.PositiveMatches, min(alerts, 5), st.DCGEdges,
		fmtBytes(st.IntermediateBytes))
}

func fmtBytes(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	}
	return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
