package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"turboflux/internal/dcg"
	"turboflux/internal/graph"
	"turboflux/internal/naive"
	"turboflux/internal/query"
	"turboflux/internal/stream"
)

// randQuery generates a small connected query: a random tree over n
// vertices plus up to extra non-tree edges, with random (possibly empty)
// vertex label constraints.
func randQuery(rng *rand.Rand, n, extra, vLabels, eLabels int) *query.Graph {
	q := query.NewGraph(n)
	for u := 0; u < n; u++ {
		if rng.Intn(3) > 0 { // 2/3 of vertices constrained
			q.SetLabels(graph.VertexID(u), graph.Label(rng.Intn(vLabels)))
		}
	}
	for u := 1; u < n; u++ {
		p := graph.VertexID(rng.Intn(u))
		l := graph.Label(rng.Intn(eLabels))
		if rng.Intn(2) == 0 {
			_ = q.AddEdge(p, l, graph.VertexID(u))
		} else {
			_ = q.AddEdge(graph.VertexID(u), l, p)
		}
	}
	for i := 0; i < extra; i++ {
		a := graph.VertexID(rng.Intn(n))
		b := graph.VertexID(rng.Intn(n))
		_ = q.AddEdge(a, graph.Label(rng.Intn(eLabels)), b) // duplicates rejected
	}
	return q
}

// randGraph generates a labeled data graph with nv vertices.
func randGraph(rng *rand.Rand, nv, edges, vLabels, eLabels int) *graph.Graph {
	g := graph.New()
	for v := 0; v < nv; v++ {
		_ = g.AddVertex(graph.VertexID(v), graph.Label(rng.Intn(vLabels)))
	}
	for i := 0; i < edges; i++ {
		g.InsertEdge(graph.VertexID(rng.Intn(nv)), graph.Label(rng.Intn(eLabels)),
			graph.VertexID(rng.Intn(nv)))
	}
	return g
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// shuffledCopy returns a graph with g's vertices and edges, the edges
// inserted in an order shuffled by rng: every adjacency list holds the same
// set as g's, in a different stored order.
func shuffledCopy(t *testing.T, g *graph.Graph, rng *rand.Rand) *graph.Graph {
	t.Helper()
	c := graph.New()
	g.ForEachVertex(func(v graph.VertexID) {
		if err := c.AddVertex(v, g.Labels(v)...); err != nil {
			t.Fatal(err)
		}
	})
	es := g.Edges()
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	for _, e := range es {
		c.InsertEdge(e.From, e.Label, e.To)
	}
	return c
}

// appendMatch appends one OnMatch call to a transcript.
func appendMatch(log []byte, positive bool, m []graph.VertexID) []byte {
	sign := byte('-')
	if positive {
		sign = '+'
	}
	log = append(log, sign)
	log = append(log, mapKey(m)...)
	return append(log, '\n')
}

// runDifferential drives a random update stream through the TurboFlux
// engine, a twin engine whose g0 holds the same edges inserted in a
// shuffled order, a maintenance-only engine (NewMaintainer) on a third
// copy of the graph, and the naive recompute oracle, asserting after every
// update that
//
//  1. the reported positive/negative match sets equal the oracle's,
//  2. the twin's OnMatch transcript is byte-identical to the engine's and
//     its DCG snapshot equal: nothing in the engine reads the stored order
//     of an adjacency list (DESIGN.md §11, "Order independence"),
//  3. the engine's DCG and the maintainer's equal the declarative fixpoint
//     (ComputeSpec), and
//  4. both DCGs' internal counters validate.
func runDifferential(t *testing.T, seed int64, injective bool, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nv, vLabels, eLabels = 10, 3, 3
	q := randQuery(rng, 3+rng.Intn(3), rng.Intn(3), vLabels, eLabels)
	g0 := randGraph(rng, nv, 8+rng.Intn(10), vLabels, eLabels)
	twinG0 := shuffledCopy(t, g0, rand.New(rand.NewSource(^seed)))

	sem := Homomorphism
	if injective {
		sem = Isomorphism
	}
	pos := map[string]bool{}
	neg := map[string]bool{}
	var log, twinLog []byte
	opt := DefaultOptions()
	opt.Semantics = sem
	twinOpt := opt
	opt.OnMatch = func(positive bool, m []graph.VertexID) {
		log = appendMatch(log, positive, m)
		k := mapKey(m)
		if positive {
			if pos[k] {
				t.Fatalf("duplicate positive match %s", k)
			}
			pos[k] = true
		} else {
			if neg[k] {
				t.Fatalf("duplicate negative match %s", k)
			}
			neg[k] = true
		}
	}
	twinOpt.OnMatch = func(positive bool, m []graph.VertexID) {
		twinLog = appendMatch(twinLog, positive, m)
	}
	eng, err := New(g0.Clone(), q, opt)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(twinG0, q, twinOpt)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := naive.New(g0.Clone(), q, injective)
	if err != nil {
		t.Fatal(err)
	}
	// The maintainer's donor builds the initial DCG and is never applied
	// to: from then on only MaintainInsertedEdge and MaintainBeforeDelete
	// move that DCG.
	maintG := g0.Clone()
	donor, err := New(maintG, q, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	maint := NewMaintainer(donor)
	// checkSpec requires e's DCG to be the declarative fixpoint of its graph.
	checkSpec := func(step int, who string, e *Engine) {
		t.Helper()
		spec := dcg.ComputeSpec(e.Graph(), e.Tree())
		snap := e.DCG().SnapshotMap()
		if len(spec) != len(snap) {
			t.Fatalf("seed %d step %d: %s DCG has %d edges, spec %d\nsnap=%v\nspec=%v\nquery %v",
				seed, step, who, len(snap), len(spec), snap, spec, q)
		}
		for k, s := range spec {
			if snap[k] != s {
				t.Fatalf("seed %d step %d: %s DCG[%v]=%v, spec=%v (query %v)",
					seed, step, who, k, snap[k], s, q)
			}
		}
		if err := e.DCG().Validate(); err != nil {
			t.Fatalf("seed %d step %d: %s: %v", seed, step, who, err)
		}
	}
	// checkTwin requires the twin to have reported and stored exactly
	// what the engine did since the last check.
	checkTwin := func(step int) {
		t.Helper()
		if string(log) != string(twinLog) {
			t.Fatalf("seed %d step %d: twin transcript differs:\n got %q\nwant %q\nquery %v",
				seed, step, twinLog, log, q)
		}
		if got, want := twin.DCG().Snapshot(), eng.DCG().Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d step %d: twin DCG differs:\n got %v\nwant %v\nquery %v",
				seed, step, got, want, q)
		}
		log, twinLog = log[:0], twinLog[:0]
	}

	// Initial matches must agree.
	initSet := map[string]bool{}
	pos = initSet
	eng.InitialMatches()
	twin.InitialMatches()
	if got, want := sortedKeys(initSet), sortedKeys(oracle.InitialMatches()); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: initial matches differ:\n got %v\nwant %v\nquery %v", seed, got, want, q)
	}
	checkTwin(-1)

	live := map[graph.Edge]bool{}
	g0.ForEachEdge(func(e graph.Edge) { live[e] = true })

	for step := 0; step < steps; step++ {
		var up stream.Update
		if len(live) > 0 && rng.Intn(3) == 0 {
			// Delete a random live edge.
			es := make([]graph.Edge, 0, len(live))
			for e := range live {
				es = append(es, e)
			}
			sort.Slice(es, func(i, j int) bool {
				return fmt.Sprint(es[i]) < fmt.Sprint(es[j])
			})
			e := es[rng.Intn(len(es))]
			up = stream.Delete(e.From, e.Label, e.To)
			delete(live, e)
		} else {
			e := graph.Edge{
				From:  graph.VertexID(rng.Intn(nv)),
				Label: graph.Label(rng.Intn(eLabels)),
				To:    graph.VertexID(rng.Intn(nv)),
			}
			up = stream.Insert(e.From, e.Label, e.To)
			live[e] = true
		}

		pos, neg = map[string]bool{}, map[string]bool{}
		if _, err := eng.Apply(up); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		if _, err := twin.Apply(up); err != nil {
			t.Fatalf("seed %d step %d: twin: %v", seed, step, err)
		}
		checkTwin(step)
		ed := up.Edge
		if up.Op == stream.OpInsert {
			if maintG.InsertEdge(ed.From, ed.Label, ed.To) {
				maint.MaintainInsertedEdge(ed.From, ed.Label, ed.To)
			}
		} else if maintG.HasEdge(ed.From, ed.Label, ed.To) {
			maint.MaintainBeforeDelete(ed.From, ed.Label, ed.To)
			maintG.DeleteEdge(ed.From, ed.Label, ed.To)
		}
		oPos, oNeg, err := oracle.Apply(up)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sortedKeys(pos), sortedKeys(oPos); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d step %d (%v %v): positive mismatch\n got %v\nwant %v\nquery %v",
				seed, step, up.Op, up.Edge, got, want, q)
		}
		if got, want := sortedKeys(neg), sortedKeys(oNeg); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d step %d (%v %v): negative mismatch\n got %v\nwant %v\nquery %v",
				seed, step, up.Op, up.Edge, got, want, q)
		}

		checkSpec(step, "engine", eng)
		checkSpec(step, "maintainer", maint)
	}
}

func TestDifferentialHomomorphism(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		runDifferential(t, seed, false, 60)
	}
}

func TestDifferentialIsomorphism(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		runDifferential(t, seed, true, 60)
	}
}

func TestDifferentialLongStream(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential test")
	}
	runDifferential(t, 424242, false, 400)
	runDifferential(t, 434343, true, 400)
}

// TestOrderIndependence is runDifferential's twin check on a case built to
// reach a non-tree probe with a short adjacency list: the same edge set
// stored in two opposite orders must give byte-identical transcripts and
// equal DCGs. Label 2 is common elsewhere, so the query tree takes
// u0 -0-> u1 and u0 -1-> u2 and leaves u1 -2-> u2 non-tree; at u1 the
// in-neighbours of m(u2) through label 2 (two) are fewer than u1's DCG
// children (five), so an enumeration that iterated the shorter list would
// emit in stored order.
func TestOrderIndependence(t *testing.T) {
	q := query.NewGraph(3)
	_ = q.AddEdge(0, 0, 1)
	_ = q.AddEdge(0, 1, 2)
	_ = q.AddEdge(1, 2, 2)
	var es []graph.Edge
	for v := graph.VertexID(1); v <= 5; v++ {
		es = append(es, graph.Edge{From: 0, Label: 0, To: v})
	}
	es = append(es, graph.Edge{From: 0, Label: 1, To: 10})
	for _, v := range []graph.VertexID{1, 2} {
		es = append(es, graph.Edge{From: v, Label: 2, To: 10}, graph.Edge{From: v, Label: 2, To: 11})
	}
	for v := graph.VertexID(20); v < 120; v++ {
		es = append(es, graph.Edge{From: v, Label: 2, To: v + 1})
	}
	var logs [2][]byte
	var snaps [2][]dcg.SnapEdge
	for i := range logs {
		g := graph.New()
		for _, e := range es {
			g.EnsureVertex(e.From, 0)
			g.EnsureVertex(e.To, 0)
			g.InsertEdge(e.From, e.Label, e.To)
		}
		opt := DefaultOptions()
		opt.StartVertex = 0
		opt.OnMatch = func(positive bool, m []graph.VertexID) {
			logs[i] = appendMatch(logs[i], positive, m)
		}
		eng, err := New(g, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		eng.InitialMatches()
		for _, up := range []stream.Update{stream.Insert(0, 1, 11), stream.Delete(0, 1, 10)} {
			if _, err := eng.Apply(up); err != nil {
				t.Fatal(err)
			}
		}
		snaps[i] = eng.DCG().Snapshot()
		slices.Reverse(es)
	}
	if n := bytes.Count(logs[0], []byte{'\n'}); n != 6 {
		t.Fatalf("%d matches, want 6 (2 initial, 2 inserted, 2 deleted):\n%s", n, logs[0])
	}
	if string(logs[0]) != string(logs[1]) {
		t.Fatalf("transcript depends on stored order:\n%s\nvs\n%s", logs[0], logs[1])
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Fatalf("DCG depends on stored order:\n%v\nvs\n%v", snaps[0], snaps[1])
	}
}
