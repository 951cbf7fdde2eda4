package shard

// In-process shard cluster tests: placement, rebalancing, label-dictionary
// sync, sequence-gap detection, heartbeat death, and transcript
// equivalence against a single server. Shards are real servers
// (server.New) on loopback; the multi-process variant lives in
// e2e_test.go.

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
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
	s, _, err := server.New(opt)
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
	addr, stop = startCoordinator(t, opt)
	return addr, shards, stop
}

// startCoordinator runs a coordinator over opt.Shards and returns its
// client address and the idempotent stop t.Cleanup also runs.
func startCoordinator(t *testing.T, opt Options) (addr string, stop func()) {
	t.Helper()
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
	return co.Addr().String(), stop
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

// stat reads key through get, a server.StatsLine getter, failing the test
// when the line lacks the key or carries it malformed.
func stat[T any](t *testing.T, get func(string) (T, error), key string) T {
	t.Helper()
	v, err := get(key)
	if err != nil {
		t.Fatal(err)
	}
	return v
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
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if role, err := st.Role(); err != nil || role != "coordinator" {
		t.Fatalf("role = %q, %v; want coordinator", role, err)
	}
	// Least-loaded with lowest-id tiebreak alternates 0,1,0,1.
	for i, want := range []uint64{0, 1, 0, 1} {
		if got := stat(t, st.Find("query", fmt.Sprintf("q%d", i)).Uint, "shard"); got != want {
			t.Fatalf("q%d placed on shard %d, want %d", i, got, want)
		}
	}
	// Unregistering a shard-0 query rebalances: the next query lands on 0.
	if err := c.Unregister("q0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("q4", "(a:P)-[:e4]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	if st, err = c.Stats(); err != nil {
		t.Fatal(err)
	}
	if got := stat(t, st.Find("query", "q4").Uint, "shard"); got != 0 {
		t.Fatalf("q4 placed on shard %d, want 0 after rebalance", got)
	}
	if q0 := st.Find("query", "q0"); q0.String() != "" {
		t.Fatalf("q0 still registered after UNREGISTER: %s", q0)
	}
	// The shard-side registration really moved: shard stats show 2/2.
	for _, s := range st.Lines("shard") {
		if n := stat(t, s.Uint, "queries"); n != 2 {
			t.Fatalf("shard %s owns %d queries, want 2: %v", s.ID, n, st.Lines("shard"))
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

// logLines is the standard logger's output while a test runs.
type logLines struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logLines) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// captureLog sends the standard logger to a buffer until the test ends.
func captureLog(t *testing.T) *logLines {
	l := &logLines{}
	log.SetOutput(l)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return l
}

// wantOneDownLine fails unless exactly one shard-death line was logged,
// naming shard id and containing cause.
func wantOneDownLine(t *testing.T, l *logLines, id int, cause string) {
	t.Helper()
	l.mu.Lock()
	out := l.b.String()
	l.mu.Unlock()
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, ") down: ") {
			lines = append(lines, line)
		}
	}
	if len(lines) != 1 || !strings.Contains(lines[0], fmt.Sprintf("shard: shard %d (", id)) || !strings.Contains(lines[0], cause) {
		t.Fatalf("logged shard-death lines %q, want one for shard %d naming %q", lines, id, cause)
	}
}

// TestSequenceGapMarksShardDown: a write that bypasses the coordinator
// desynchronizes that shard's sequence; the next fanned update detects
// the gap and the shard is marked down fail-stop, with one log line naming
// the cause, while the cluster keeps serving from the others.
func TestSequenceGapMarksShardDown(t *testing.T) {
	logged := captureLog(t)
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
	st, err := c.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if shards := st.Lines("shard"); len(shards) != 2 || stat(t, shards[0].Bool, "alive") || !stat(t, shards[1].Bool, "alive") {
		t.Fatalf("shard health after gap = %v, want shard 0 down, shard 1 alive", shards)
	}
	wantOneDownLine(t, logged, 0, "sequence gap")

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
// heartbeat prober, which logs the cause once, and degrades the cluster
// instead of wedging it.
func TestHeartbeatMarksDeadShardDown(t *testing.T) {
	logged := captureLog(t)
	// Shard 1 is started manually so the test can kill it mid-flight.
	shard0 := startShardServer(t)
	s1, _, err := server.New(server.Options{})
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
		st, err := c.ShardStats()
		if err != nil {
			t.Fatal(err)
		}
		s1 := st.Find("shard", "1")
		if !stat(t, s1.Bool, "alive") {
			if stat(t, s1.Uint, "misses") == 0 {
				t.Fatalf("dead shard reports 0 misses: %s", s1)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 1 never marked down: %s", s1)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The survivor keeps accepting work.
	if _, err := c.DeclareVertex(1, 0); err != nil {
		t.Fatalf("update after shard death failed: %v", err)
	}
	wantOneDownLine(t, logged, 1, "heartbeat")
}

// stubShard answers every STATS with payload and refuses every other
// request. It returns the stub's address and a channel that receives one
// value per STATS answered. The stub never blocks on it: a send finding its
// 64 slots full is dropped, so a test that stops reading stops no probe.
func stubShard(t *testing.T, payload ...string) (string, <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	served := make(chan struct{}, 64)
	t.Cleanup(func() {
		ln.Close() //tf:unchecked-ok test cleanup
		mu.Lock()
		defer mu.Unlock()
		for _, nc := range conns {
			nc.Close() //tf:unchecked-ok test cleanup
		}
	})
	//tf:goroutine stub-shard-accept
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, nc)
			mu.Unlock()
			//tf:goroutine stub-shard-conn
			go func() {
				br := bufio.NewReader(nc)
				for {
					req, err := br.ReadString('\n')
					if err != nil {
						return
					}
					reply := "-ERR stub shard\n"
					stats := req == "STATS\n"
					if stats {
						reply = fmt.Sprintf("+DATA %d\n%s\n", len(payload), strings.Join(payload, "\n"))
					}
					if _, err := nc.Write([]byte(reply)); err != nil {
						return
					}
					if stats {
						select {
						case served <- struct{}{}:
						default:
						}
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), served
}

// TestAttachRefusesStatsWithoutSeq: the ack base is the shard's STATS seq,
// so a shard whose payload lacks it is refused at New, naming the key,
// instead of attaching at base 0 and failing later with a bogus sequence
// gap.
func TestAttachRefusesStatsWithoutSeq(t *testing.T) {
	addr, _ := stubShard(t, "server conns=1 updates=7")
	co, err := New(Options{Shards: []string{addr}, RequestTimeout: 5 * time.Second})
	if err == nil {
		co.Shutdown(context.Background()) //tf:unchecked-ok the test has failed already
		t.Fatal("New attached a shard whose STATS has no seq")
	}
	if !strings.Contains(err.Error(), "has no seq") {
		t.Fatalf("New: %v, want an error naming seq", err)
	}
}

// TestProbeReadsOnlyLiveness: the coordinator reads a shard's role and
// seq at attach and nothing else, and nothing at all from a heartbeat's
// reply, so a shard whose STATS is only a server line attaches and passes
// every probe. The wait is on the probes the stub answers: the admit's
// STATS, then four probes — the fourth is sent only once the third's reply
// was judged.
func TestProbeReadsOnlyLiveness(t *testing.T) {
	addr, served := stubShard(t, "server conns=1 seq=7")
	opt := Options{HeartbeatInterval: 5 * time.Millisecond, HeartbeatMisses: 1}
	opt.setDefaults()
	h, err := attach(0, addr, opt)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if h.base != 7 {
		t.Fatalf("ack base %d, want the shard's seq 7", h.base)
	}
	h.start()
	defer func() {
		close(h.tasks)
		close(h.stop)
		h.wg.Wait()
		h.closeClients()
	}()
	timeout := time.After(10 * time.Second)
	for i := 0; i < 5; i++ {
		select {
		case <-served:
		case <-timeout:
			t.Fatalf("the stub answered %d STATS, want the admit's and 4 probes", i)
		}
	}
	if !h.alive.Load() || h.misses.Load() != 0 {
		t.Fatalf("after 3 judged probes: alive=%t misses=%d, want alive with no miss (down: %q)",
			h.alive.Load(), h.misses.Load(), h.downReason())
	}
}

// statKeys returns the keys of a STATS line, in order.
func statKeys(l server.StatsLine) []string {
	var keys []string
	for _, f := range strings.Fields(l.String()) {
		if k, _, ok := strings.Cut(f, "="); ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestCoordinatorStats reads the coordinator's STATS over the Go client:
// role, totals and placement, and no line or key the shards report
// themselves. A query's subscriber count is its owning shard's.
func TestCoordinatorStats(t *testing.T) {
	addr, shards, _ := startCluster(t, 2, Options{})
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
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if role, err := st.Role(); err != nil || role != "coordinator" {
		t.Fatalf("role = %q, %v; want coordinator", role, err)
	}
	cl := st.Line("cluster")
	if stat(t, cl.Uint, "shards") != 2 || stat(t, cl.Uint, "alive") != 2 || stat(t, cl.Uint, "seq") != 1 {
		t.Fatalf("cluster line = %s, want shards=2 alive=2 seq=1", cl)
	}
	if mqo := st.Lines("mqo"); len(mqo) != 0 {
		t.Fatalf("coordinator STATS carries %v; sharing counters are the shards'", mqo)
	}
	qs := st.Lines("query")
	if len(qs) != 1 || stat(t, qs[0].Uint, "shard") != 0 || fmt.Sprint(statKeys(qs[0])) != "[shard]" {
		t.Fatalf("query lines = %v, want q0 with shard=0 only", qs)
	}
	for _, s := range st.Lines("shard") {
		if stat(t, s.Uint, "seq") != 1 || stat(t, s.Uint, "lag") != 0 {
			t.Fatalf("shard line %s: want seq=1 lag=0", s)
		}
		if got := fmt.Sprint(statKeys(s)); got != "[addr alive queries seq lag ping_us misses]" {
			t.Fatalf("shard line %s: keys %s", s, got)
		}
	}
	ost, err := dialTest(t, shards[0]).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if q := ost.Find("query", "q0"); stat(t, q.Uint, "subs") != 1 {
		t.Fatalf("owning shard's query line %s: want subs=1", q)
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
