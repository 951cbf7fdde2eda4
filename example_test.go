package turboflux_test

import (
	"fmt"
	"math/rand"

	"turboflux"
	"turboflux/internal/workload"
)

// The basic loop: load g0, register a query, stream updates, get matches.
// A single query is a MultiEngine with one registration.
func Example() {
	const person, account turboflux.Label = 0, 1
	const owns, pays turboflux.Label = 0, 1

	g := turboflux.NewGraph()
	g.EnsureVertex(1, person)
	g.EnsureVertex(10, account)
	g.EnsureVertex(20, account)
	g.InsertEdge(1, owns, 10)

	q := turboflux.NewQuery(3)
	q.SetLabels(0, person)
	q.SetLabels(1, account)
	q.SetLabels(2, account)
	_ = q.AddEdge(0, owns, 1)
	_ = q.AddEdge(1, pays, 2)

	m := turboflux.NewMultiEngine(g)
	defer m.Close()
	_ = m.Register("payment", q, turboflux.Options{
		OnMatch: func(positive bool, mapping []turboflux.VertexID) {
			fmt.Printf("positive=%v person=%d account=%d payee=%d\n",
				positive, mapping[0], mapping[1], mapping[2])
		},
	})
	_, _ = m.Insert(10, pays, 20)
	_, _ = m.Delete(10, pays, 20)
	// Output:
	// positive=true person=1 account=10 payee=20
	// positive=false person=1 account=10 payee=20
}

// Queries can be written as Cypher-like patterns.
func ExampleParseQuery() {
	vd, ed := turboflux.NewDict(), turboflux.NewDict()
	q, names, err := turboflux.ParseQuery(
		"MATCH (a:Person)-[:follows]->(b:Person), (b)-[:follows]->(a)", vd, ed)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("vertices:", q.NumVertices(), "edges:", q.NumEdges())
	fmt.Println("a is query vertex", names["a"])
	// Output:
	// vertices: 2 edges: 2
	// a is query vertex 0
}

// Several queries can share one data graph through a MultiEngine.
func ExampleMultiEngine() {
	m := turboflux.NewMultiEngine(turboflux.NewGraph())

	q1 := turboflux.NewQuery(2)
	_ = q1.AddEdge(0, 1, 1)
	_ = m.Register("pair", q1, turboflux.Options{})

	q2 := turboflux.NewQuery(3)
	_ = q2.AddEdge(0, 1, 1)
	_ = q2.AddEdge(1, 1, 2)
	_ = m.Register("chain", q2, turboflux.Options{})

	counts, _ := m.Insert(1, 1, 2)
	fmt.Println("after first edge:", counts["pair"], counts["chain"])
	counts, _ = m.Insert(2, 1, 3)
	fmt.Println("after second edge:", counts["pair"], counts["chain"])
	// Output:
	// after first edge: 1 0
	// after second edge: 1 1
}

// Fraud-ring detection, the paper's motivating banking scenario (Section
// 1): fraudsters organize into rings, detectable as cyclic money flows. The
// query is a ring of four accounts transferring in a cycle, each account
// owned by a distinct customer — under subgraph isomorphism so one account
// cannot play two ring positions. A synthetic stream of mostly-benign
// transfers is replayed; a planted ring fires the alert the moment its
// closing transfer lands. A ring of k accounts is reported once per
// rotation (k automorphic mappings); deduplicating rotations is
// application policy.
func Example_fraudDetection() {
	const customer, account turboflux.Label = 0, 1
	const owns, transfer turboflux.Label = 0, 1
	const nCustomers = 500
	rng := rand.New(rand.NewSource(7))

	// g0: every customer owns one account; no transfers yet. Customer i is
	// vertex i, their account is vertex 10000+i.
	g := turboflux.NewGraph()
	acct := func(i int) turboflux.VertexID { return turboflux.VertexID(10000 + i) }
	for i := 0; i < nCustomers; i++ {
		g.EnsureVertex(turboflux.VertexID(i), customer)
		g.EnsureVertex(acct(i), account)
		g.InsertEdge(turboflux.VertexID(i), owns, acct(i))
	}

	// Ring query: accounts u4 -> u5 -> u6 -> u7 -> u4 in a transfer cycle,
	// owned by customers u0..u3 respectively.
	q := turboflux.NewQuery(8)
	for u := turboflux.VertexID(0); u < 4; u++ {
		q.SetLabels(u, customer)
		q.SetLabels(u+4, account)
		_ = q.AddEdge(u, owns, u+4)
		_ = q.AddEdge(u+4, transfer, 4+(u+1)%4)
	}

	alerts := 0
	m := turboflux.NewMultiEngine(g)
	defer m.Close()
	err := m.Register("ring", q, turboflux.Options{
		Semantics: turboflux.Isomorphism,
		OnMatch: func(positive bool, mapping []turboflux.VertexID) {
			if positive && alerts < 4 {
				alerts++
				fmt.Printf("ALERT: ring %d -> %d -> %d -> %d (customers %d,%d,%d,%d)\n",
					mapping[4], mapping[5], mapping[6], mapping[7],
					mapping[0], mapping[1], mapping[2], mapping[3])
			}
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	// Benign traffic: random transfers between accounts.
	for i := 0; i < 3000; i++ {
		from, to := rng.Intn(nCustomers), rng.Intn(nCustomers)
		if from == to {
			continue
		}
		if _, err := m.Insert(acct(from), transfer, acct(to)); err != nil {
			fmt.Println(err)
			return
		}
	}

	// The planted ring: accounts 7, 42, 99, 123 transfer in a cycle. Its
	// closing transfer fires (the second one closes an older ring too).
	ring := []int{7, 42, 99, 123}
	fmt.Println("planting fraud ring", ring)
	for i := range ring {
		from, to := ring[i], ring[(i+1)%len(ring)]
		counts, err := m.Insert(acct(from), transfer, acct(to))
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("  transfer %d->%d: %d new ring(s) detected\n", acct(from), acct(to), counts["ring"])
	}

	st := m.Stats()["ring"]
	fmt.Printf("done: %d ring alignments over the whole stream, DCG %d edges\n",
		st.PositiveMatches, st.DCGEdges)
	// Output:
	// ALERT: ring 10197 -> 10489 -> 10153 -> 10367 (customers 197,489,153,367)
	// ALERT: ring 10367 -> 10197 -> 10489 -> 10153 (customers 367,197,489,153)
	// ALERT: ring 10153 -> 10367 -> 10197 -> 10489 (customers 153,367,197,489)
	// ALERT: ring 10489 -> 10153 -> 10367 -> 10197 (customers 489,153,367,197)
	// planting fraud ring [7 42 99 123]
	//   transfer 10007->10042: 0 new ring(s) detected
	//   transfer 10042->10099: 4 new ring(s) detected
	//   transfer 10099->10123: 0 new ring(s) detected
	//   transfer 10123->10007: 4 new ring(s) detected
	// done: 1240 ring alignments over the whole stream, DCG 11422 edges
}

// Network-intrusion monitoring, the paper's cyber-security scenario
// (Section 1): worm spread is modeled as a fan-out pattern — one host opens
// SSH connections to two different hosts which each open SSH connections
// onward. The monitor runs over a Netflow-like traffic stream (unlabeled
// hosts, eight protocol edge labels, heavy-tailed host popularity), the
// label-poor regime of the paper's Netflow experiments.
func Example_netMonitor() {
	// Synthetic traffic substitute for the CAIDA traces (DESIGN.md §4).
	ds := workload.Netflow(workload.NetflowConfig{
		Hosts:          800,
		Triples:        12000,
		StreamFraction: 0.25,
		Seed:           11,
	})

	// Worm pattern: u0 -ssh-> u1 -ssh-> u2 and u0 -ssh-> u3 -ssh-> u4, a
	// two-branch propagation tree. No vertex labels exist in Netflow.
	ssh := workload.FlowSSH
	q := turboflux.NewQuery(5)
	_ = q.AddEdge(0, ssh, 1)
	_ = q.AddEdge(1, ssh, 2)
	_ = q.AddEdge(0, ssh, 3)
	_ = q.AddEdge(3, ssh, 4)

	alerts := 0
	m := turboflux.NewMultiEngine(ds.Graph)
	defer m.Close()
	err := m.Register("worm", q, turboflux.Options{
		Semantics: turboflux.Isomorphism,
		OnMatch: func(positive bool, mapping []turboflux.VertexID) {
			if positive && alerts < 5 {
				alerts++
				fmt.Printf("ALERT: possible worm at host %d (spread: %d->%d, %d->%d)\n",
					mapping[0], mapping[1], mapping[2], mapping[3], mapping[4])
			}
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Printf("baseline: %d pattern instances already in the trace\n", m.InitialMatches()["worm"])
	if _, err := m.ApplyBatch(ds.Stream); err != nil {
		fmt.Println(err)
		return
	}
	st := m.Stats()["worm"]
	fmt.Printf("monitored %d flow updates: %d new alerts, DCG %d edges (%.1fKiB used as index)\n",
		len(ds.Stream), st.PositiveMatches, st.DCGEdges, float64(st.IntermediateBytes)/(1<<10))
	// Output:
	// ALERT: possible worm at host 490 (spread: 15->74, 123->41)
	// ALERT: possible worm at host 490 (spread: 123->41, 15->74)
	// ALERT: possible worm at host 584 (spread: 15->74, 314->342)
	// ALERT: possible worm at host 584 (spread: 314->342, 15->74)
	// baseline: 4 pattern instances already in the trace
	// ALERT: possible worm at host 498 (spread: 183->0, 105->7)
	// monitored 3000 flow updates: 64 new alerts, DCG 1822 edges (28.5KiB used as index)
}

// Social-stream monitoring over the LSBench-like workload: track a "viral
// post" pattern — a post pinned in a moderated channel that two distinct
// users like — as edges stream in and out: initial matches over g0,
// positive matches as the stream inserts likes, and negative matches when
// edges are deleted (a user retracting a like).
func Example_socialStream() {
	ds := workload.LSBench(workload.LSBenchConfig{
		Users:          800,
		StreamFraction: 0.15,
		DeletionRate:   0.05, // 5% of streamed inserts are followed by a deletion
		Seed:           3,
	})
	sc := ds.Schema

	// u0(User) -moderatorOf-> u1(Channel); u2(Post) -pinnedIn-> u1;
	// u3(User) -likes-> u2; u4(User) -likes-> u2.
	user := sc.VertexTypes[workload.TypeUser]
	q := turboflux.NewQuery(5)
	q.SetLabels(0, user)
	q.SetLabels(1, sc.VertexTypes[workload.TypeChannel])
	q.SetLabels(2, sc.VertexTypes[workload.TypePost])
	q.SetLabels(3, user)
	q.SetLabels(4, user)
	_ = q.AddEdge(0, workload.EdgeModeratorOf, 1)
	_ = q.AddEdge(2, workload.EdgePinnedIn, 1)
	_ = q.AddEdge(3, workload.EdgeLikes, 2)
	_ = q.AddEdge(4, workload.EdgeLikes, 2)

	var pos, neg int
	var lastMatch []turboflux.VertexID
	m := turboflux.NewMultiEngine(ds.Graph)
	defer m.Close()
	err := m.Register("viral", q, turboflux.Options{
		Semantics: turboflux.Isomorphism,
		OnMatch: func(positive bool, mapping []turboflux.VertexID) {
			if positive {
				pos++
				lastMatch = append(lastMatch[:0], mapping...)
				if pos <= 3 {
					fmt.Printf("viral: post %d in channel %d (moderator %d, fans %d & %d)\n",
						mapping[2], mapping[1], mapping[0], mapping[3], mapping[4])
				}
			} else if neg++; neg <= 3 {
				fmt.Printf("cooled off: post %d lost pattern support\n", mapping[2])
			}
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Printf("initial viral posts: %d\n", m.InitialMatches()["viral"])
	if _, err := m.ApplyBatch(ds.Stream); err != nil {
		fmt.Println(err)
		return
	}

	// A fan retracts their like: the engine reports every pattern instance
	// the retraction destroys as a negative match.
	counts, err := m.Delete(lastMatch[3], workload.EdgeLikes, lastMatch[2])
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("user %d unliked post %d: %d instance(s) retracted\n", lastMatch[3], lastMatch[2], counts["viral"])

	st := m.Stats()["viral"]
	fmt.Printf("replayed %d updates: +%d / -%d pattern changes, DCG %d edges\n",
		len(ds.Stream), st.PositiveMatches, st.NegativeMatches, st.DCGEdges)
	// Output:
	// viral: post 2046 in channel 10002 (moderator 19, fans 48 & 9)
	// viral: post 2046 in channel 10002 (moderator 19, fans 9 & 48)
	// viral: post 3882 in channel 10005 (moderator 668, fans 94 & 84)
	// initial viral posts: 32
	// cooled off: post 1145 lost pattern support
	// cooled off: post 1145 lost pattern support
	// cooled off: post 1145 lost pattern support
	// user 428 unliked post 1145: 4 instance(s) retracted
	// replayed 5022 updates: +48 / -4 pattern changes, DCG 245 edges
}
