package shard

// In-process shard cluster tests: placement, rebalancing, label-dictionary
// sync, sequence-gap detection, heartbeat death, and transcript
// equivalence against a single server. Shards are real server.Server
// instances on loopback; the multi-process variant lives in
// e2e_test.go.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"turboflux"
	"turboflux/internal/server"
)

// startShardServer runs one plain server on loopback and returns its
// address.
func startShardServer(t *testing.T) string {
	t.Helper()
	return startShardServerWith(t, server.Options{})
}

func startShardServerWith(t *testing.T, opt server.Options) string {
	t.Helper()
	s, err := server.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shard server shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("shard server serve: %v", err)
		}
	})
	return s.Addr().String()
}

// startCluster runs n shard servers plus a coordinator and returns the
// coordinator's client address and the shard addresses. The coordinator
// is stopped by t.Cleanup with an idempotent stop (returned for tests
// that shut it down mid-test).
func startCluster(t *testing.T, n int, opt Options) (addr string, shards []string, stop func()) {
	t.Helper()
	for i := 0; i < n; i++ {
		shards = append(shards, startShardServer(t))
	}
	opt.Shards = shards
	co, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- co.Serve() }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := co.Shutdown(ctx); err != nil {
				t.Errorf("coordinator shutdown: %v", err)
			}
			if err := <-serveDone; err != nil {
				t.Errorf("coordinator serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return co.Addr().String(), shards, stop
}

func dialTest(t *testing.T, addr string) *server.Client {
	t.Helper()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //tf:unchecked-ok test cleanup
	return c
}

// entry is one comparable transcript event.
type entry struct {
	seq     uint64
	sign    string
	mapping string
}

func toEntry(ev server.Event) entry {
	sign := "-"
	if ev.Positive {
		sign = "+"
	}
	return entry{seq: ev.Seq, sign: sign, mapping: fmt.Sprint(ev.Mapping)}
}

// collectEvents drains want events from the client, keyed by query.
func collectEvents(t *testing.T, c *server.Client, want int) map[string][]entry {
	t.Helper()
	got := make(map[string][]entry)
	for i := 0; i < want; i++ {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatalf("event stream closed after %d of %d events", i, want)
			}
			if ev.Evicted {
				t.Fatalf("unexpected eviction of %q", ev.Query)
			}
			got[ev.Query] = append(got[ev.Query], toEntry(ev))
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d of %d events", i, want)
		}
	}
	select {
	case ev := <-c.Events():
		t.Fatalf("unexpected extra event %+v", ev)
	case <-time.After(50 * time.Millisecond):
	}
	return got
}

// clusterWorkload registers nq single-edge queries (one per edge label),
// declares 4 vertices and drives alternating inserts/deletes across all
// edge labels, so every query sees a deterministic transcript.
func clusterWorkload(t *testing.T, c *server.Client, nq, updates int) (events int) {
	t.Helper()
	for i := 0; i < nq; i++ {
		if err := c.Register(fmt.Sprintf("q%d", i), fmt.Sprintf("(a:P)-[:e%d]->(b:P)", i)); err != nil {
			t.Fatal(err)
		}
	}
	vlabel, err := c.Label("vertex", "P")
	if err != nil {
		t.Fatal(err)
	}
	for v := turboflux.VertexID(1); v <= 4; v++ {
		if _, err := c.DeclareVertex(v, vlabel); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nq; i++ {
		if _, err := c.Subscribe(fmt.Sprintf("q%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for k := 0; k < updates; k++ {
		el := turboflux.Label(k % nq)
		from, to := turboflux.VertexID(1+(k%2)*2), turboflux.VertexID(2+(k%2)*2)
		var ack server.Ack
		if (k/nq)%2 == 0 {
			ack, err = c.Insert(from, el, to)
		} else {
			ack, err = c.Delete(from, el, to)
		}
		if err != nil {
			t.Fatal(err)
		}
		total += int(ack.Total)
	}
	return total
}

// TestClusterTranscriptEquivalence is the core sharding contract: a
// coordinator over 4 shards produces per-query transcripts identical to
// one server receiving the same workload.
func TestClusterTranscriptEquivalence(t *testing.T) {
	const nq, updates = 8, 64

	// Reference: a single plain server.
	ref := dialTest(t, startShardServer(t))
	refEvents := clusterWorkload(t, ref, nq, updates)
	want := collectEvents(t, ref, refEvents)

	// Cluster: coordinator over 4 shards.
	addr, _, _ := startCluster(t, 4, Options{})
	c := dialTest(t, addr)
	gotEvents := clusterWorkload(t, c, nq, updates)
	if gotEvents != refEvents {
		t.Fatalf("cluster acked %d total matches, single server %d", gotEvents, refEvents)
	}
	got := collectEvents(t, c, gotEvents)

	for name, wantEntries := range want {
		gotEntries := got[name]
		if len(gotEntries) != len(wantEntries) {
			t.Fatalf("query %s: %d events, want %d", name, len(gotEntries), len(wantEntries))
		}
		for k := range wantEntries {
			if gotEntries[k] != wantEntries[k] {
				t.Fatalf("query %s event %d: got %+v, want %+v", name, k, gotEntries[k], wantEntries[k])
			}
		}
	}
}

// TestPlacementAndRebalance: queries spread least-loaded-first, and an
// unregistered query's slot is reused by the next registration.
func TestPlacementAndRebalance(t *testing.T) {
	addr, _, _ := startCluster(t, 2, Options{})
	c := dialTest(t, addr)
	for i := 0; i < 4; i++ {
		if err := c.Register(fmt.Sprintf("q%d", i), fmt.Sprintf("(a:P)-[:e%d]->(b:P)", i)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := c.StatsInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "coordinator" {
		t.Fatalf("role = %q, want coordinator", info.Role)
	}
	placement := make(map[string]int)
	for _, q := range info.Queries {
		placement[q.Name] = q.Shard
	}
	// Least-loaded with lowest-id tiebreak alternates 0,1,0,1.
	for i, want := range []int{0, 1, 0, 1} {
		if got := placement[fmt.Sprintf("q%d", i)]; got != want {
			t.Fatalf("q%d placed on shard %d, want %d (placement %v)", i, got, want, placement)
		}
	}
	// Unregistering a shard-0 query rebalances: the next query lands on 0.
	if err := c.Unregister("q0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("q4", "(a:P)-[:e4]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	info, err = c.StatsInfo()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range info.Queries {
		if q.Name == "q4" && q.Shard != 0 {
			t.Fatalf("q4 placed on shard %d, want 0 after rebalance", q.Shard)
		}
		if q.Name == "q0" {
			t.Fatal("q0 still registered after UNREGISTER")
		}
	}
	// The shard-side registration really moved: shard stats show 2/2.
	for _, s := range info.Shards {
		if s.Queries != 2 {
			t.Fatalf("shard %d owns %d queries, want 2: %+v", s.ID, s.Queries, info.Shards)
		}
	}
}

// TestLabelDictionarySync: labels intern in coordinator id order on
// every shard even though each shard only ever registers a subset of
// the queries. Matching across shards then agrees on wire ids.
func TestLabelDictionarySync(t *testing.T) {
	addr, shards, _ := startCluster(t, 2, Options{})
	c := dialTest(t, addr)
	// q0 → shard 0 interns P,e0; q1 → shard 1 must also know P (id 0)
	// and intern e1 as id 1.
	if err := c.Register("q0", "(a:P)-[:e0]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("q1", "(a:P)-[:e1]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	for i, addr := range shards {
		sc := dialTest(t, addr)
		for _, probe := range []struct {
			kind, name string
			want       turboflux.Label
		}{{"vertex", "P", 0}, {"edge", "e0", 0}, {"edge", "e1", 1}} {
			id, err := sc.Label(probe.kind, probe.name)
			if err != nil {
				t.Fatal(err)
			}
			if id != probe.want {
				t.Fatalf("shard %d interned %s %q as %d, want %d", i, probe.kind, probe.name, id, probe.want)
			}
		}
	}
	// A coordinator LABEL of a new name syncs too.
	id, err := c.Label("edge", "e2")
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("coordinator interned e2 as %d, want 2", id)
	}
	for i, addr := range shards {
		sc := dialTest(t, addr)
		got, err := sc.Label("edge", "e2")
		if err != nil {
			t.Fatal(err)
		}
		if got != 2 {
			t.Fatalf("shard %d interned e2 as %d, want 2", i, got)
		}
	}
}

// TestSequenceGapMarksShardDown: a write that bypasses the coordinator
// desynchronizes that shard's sequence; the next fanned update detects
// the gap and the shard is marked down fail-stop, while the cluster
// keeps serving from the others.
func TestSequenceGapMarksShardDown(t *testing.T) {
	addr, shards, _ := startCluster(t, 2, Options{})
	c := dialTest(t, addr)
	if err := c.Register("q0", "(a:P)-[:e0]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("q1", "(a:P)-[:e1]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeclareVertex(1, 0); err != nil {
		t.Fatal(err)
	}

	// Divergent write behind the coordinator's back.
	rogue := dialTest(t, shards[0])
	if _, err := rogue.DeclareVertex(99, 0); err != nil {
		t.Fatal(err)
	}

	// The next coordinated update sees the gap on shard 0 but still acks
	// (shard 1 applied it).
	if _, err := c.DeclareVertex(2, 0); err != nil {
		t.Fatal(err)
	}
	lines, err := c.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	info, err := server.ParseStats(lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Shards) != 2 || info.Shards[0].Alive || !info.Shards[1].Alive {
		t.Fatalf("shard health after gap = %+v, want shard 0 down, shard 1 alive", info.Shards)
	}

	// Queries on the dead shard error on subscribe; the others still work.
	if _, err := c.Subscribe("q0"); err == nil {
		t.Fatal("subscribe to a dead shard's query succeeded")
	}
	if _, err := c.Subscribe("q1"); err != nil {
		t.Fatalf("subscribe to a live shard's query failed: %v", err)
	}
	if _, err := c.Insert(1, 1, 2); err != nil {
		t.Fatalf("update after shard death failed: %v", err)
	}
}

// TestHeartbeatMarksDeadShardDown: killing a shard server trips the
// heartbeat prober and degrades the cluster instead of wedging it.
func TestHeartbeatMarksDeadShardDown(t *testing.T) {
	// Shard 1 is started manually so the test can kill it mid-flight.
	shard0 := startShardServer(t)
	s1, err := server.New(server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	s1Done := make(chan error, 1)
	go func() { s1Done <- s1.Serve() }()
	stopS1 := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s1.Shutdown(ctx) //tf:unchecked-ok killing the shard is the point
		<-s1Done
	}

	co, err := New(Options{
		Shards:            []string{shard0, s1.Addr().String()},
		HeartbeatInterval: 20 * time.Millisecond,
		RequestTimeout:    time.Second,
	})
	if err != nil {
		stopS1()
		t.Fatal(err)
	}
	if err := co.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	coDone := make(chan error, 1)
	go func() { coDone <- co.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := co.Shutdown(ctx); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
		<-coDone
	})
	c := dialTest(t, co.Addr().String())
	if err := c.Register("q0", "(a:P)-[:e0]->(b:P)"); err != nil {
		t.Fatal(err)
	}

	stopS1()

	// A poll, deliberately: what the test asserts is the prober's verdict,
	// reached on its own clock (3 misses 20 ms apart) with no update in
	// flight to fail first, and SHARDSTATS is the only place it surfaces.
	// The poll runs at half the probe period; the deadline only bounds a
	// prober that never gives its verdict.
	deadline := time.Now().Add(10 * time.Second)
	for {
		lines, err := c.ShardStats()
		if err != nil {
			t.Fatal(err)
		}
		info, err := server.ParseStats(lines)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Shards[1].Alive {
			if info.Shards[1].Misses == 0 {
				t.Fatalf("dead shard reports 0 misses: %+v", info.Shards[1])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 1 never marked down: %+v", info.Shards)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The survivor keeps accepting work.
	if _, err := c.DeclareVertex(1, 0); err != nil {
		t.Fatalf("update after shard death failed: %v", err)
	}
}

// TestCoordinatorStats covers the coordinator's typed STATS view over
// the Go client: role, totals and placement all parse.
func TestCoordinatorStats(t *testing.T) {
	addr, _, _ := startCluster(t, 2, Options{})
	c := dialTest(t, addr)
	if err := c.Register("q0", "(a:P)-[:e0]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("q0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeclareVertex(1, 0); err != nil {
		t.Fatal(err)
	}
	info, err := c.StatsInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "coordinator" {
		t.Fatalf("role = %q, want coordinator", info.Role)
	}
	if info.ShardsTotal != 2 || info.ShardsAlive != 2 {
		t.Fatalf("shards = %d/%d, want 2/2", info.ShardsAlive, info.ShardsTotal)
	}
	if info.Seq != 1 {
		t.Fatalf("seq = %d, want 1", info.Seq)
	}
	if len(info.Queries) != 1 || info.Queries[0].Subs != 1 || info.Queries[0].Shard != 0 {
		t.Fatalf("queries = %+v", info.Queries)
	}
	for _, s := range info.Shards {
		if s.Seq != 1 || s.Lag != 0 {
			t.Fatalf("shard %d seq/lag = %d/%d, want 1/0", s.ID, s.Seq, s.Lag)
		}
	}
}

// TestBatchThroughCoordinator: BATCH and BATCHB frames fan out as one
// task and ack with the coordinator's first sequence number.
func TestBatchThroughCoordinator(t *testing.T) {
	addr, _, _ := startCluster(t, 2, Options{})
	c := dialTest(t, addr)
	if err := c.Register("q0", "(a:P)-[:e0]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	ups := []turboflux.Update{
		turboflux.DeclareVertex(1, 0),
		turboflux.DeclareVertex(2, 0),
		turboflux.Insert(1, 0, 2),
	}
	ack, err := c.Batch(ups)
	if err != nil {
		t.Fatal(err)
	}
	if ack.FirstSeq != 1 || ack.Applied != 3 || ack.Total != 1 {
		t.Fatalf("batch ack = %+v, want {1 3 1}", ack)
	}
	back, err := c.BatchBinary([]turboflux.Update{turboflux.Delete(1, 0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if back.FirstSeq != 4 || back.Applied != 1 || back.Total != 1 {
		t.Fatalf("binary batch ack = %+v, want {4 1 1}", back)
	}
}

// TestResubscribeAfterEviction: once a delegated subscription has ended —
// here the owning shard evicts it on UNREGISTER — the same client
// connection can subscribe to the query again through the coordinator, as
// it can on a plain server, and the new relay delivers.
func TestResubscribeAfterEviction(t *testing.T) {
	addr, _, _ := startCluster(t, 2, Options{})
	c := dialTest(t, addr)
	if err := c.Register("q", "(a:P)-[:e]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister("q"); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-c.Events():
		if !ev.Evicted || ev.Query != "q" {
			t.Fatalf("push = %+v, want *EVICTED q", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no *EVICTED after UNREGISTER")
	}
	if err := c.Unsubscribe("q"); err == nil {
		t.Fatal("UNSUBSCRIBE of an evicted subscription must fail")
	}
	if err := c.Register("q", "(a:P)-[:e]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("q"); err != nil {
		t.Fatalf("re-SUBSCRIBE after eviction: %v", err)
	}
	p, _ := c.Label("vertex", "P")
	e, _ := c.Label("edge", "e")
	for v := turboflux.VertexID(1); v <= 2; v++ {
		if _, err := c.DeclareVertex(v, p); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := c.Insert(1, e, 2)
	if err != nil || ack.Total != 1 {
		t.Fatalf("insert: %+v %v", ack, err)
	}
	select {
	case ev := <-c.Events():
		if ev.Evicted || ev.Query != "q" || ev.Seq != ack.Seq {
			t.Fatalf("event = %+v, want q at seq %d", ev, ack.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event on the re-subscription")
	}
}
