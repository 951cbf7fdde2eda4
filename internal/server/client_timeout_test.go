package server

// Client dial/request timeout behavior and the keyed STATS reader
// (ParseStats, StatsPayload) across server roles.

import (
	"net"
	"strings"
	"testing"
	"time"

	"turboflux"
)

// TestClientRequestTimeout holds DialWith's RequestTimeout to its
// contract: an exchange against a peer that never replies fails within
// the bound, and the connection is poisoned so later requests fail fast
// instead of hanging.
func TestClientRequestTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	//tf:goroutine timeout-test-accept
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- nc // hold the conn open, never reply
	}()

	c, err := DialWith(ln.Addr().String(), DialOptions{
		Timeout:        time.Second,
		RequestTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	err = c.Ping()
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Ping against a silent peer: got %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, want ~100ms", elapsed)
	}
	// The connection is poisoned: the next request must fail fast, not
	// wait out another timeout against a dead exchange.
	if err := c.Ping(); err == nil {
		t.Fatal("Ping on a poisoned connection succeeded")
	}
	if nc := <-accepted; nc != nil {
		nc.Close() //tf:unchecked-ok test cleanup
	}
}

// TestClientRequestTimeoutNotTriggered proves a configured timeout does
// not interfere with healthy exchanges, including the multi-line STATS
// framing.
func TestClientRequestTimeoutNotTriggered(t *testing.T) {
	_, addr := startServer(t, Options{})
	c, err := DialWith(addr, DialOptions{
		Timeout:        time.Second,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("q", "(a:P)-[:e]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
}

// TestShardStatsRejectedByServer: the SHARDSTATS verb parses everywhere
// but only a coordinator answers it.
func TestShardStatsRejectedByServer(t *testing.T) {
	_, addr := startServer(t, Options{})
	c := dialTest(t, addr)
	if _, err := c.ShardStats(); err == nil || !strings.Contains(err.Error(), "coordinator") {
		t.Fatalf("ShardStats on a plain server: got %v, want coordinator error", err)
	}
	// The connection must survive the rejection.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestStatsStandalone reads a plain server's STATS payload through the
// keyed reader.
func TestStatsStandalone(t *testing.T) {
	_, addr := startServer(t, Options{})
	c := dialTest(t, addr)
	if err := c.Register("q1", "(a:P)-[:e]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("q1"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if role, err := st.Role(); err != nil || role != "standalone" {
		t.Fatalf("role = %q, %v; want standalone", role, err)
	}
	if conns := stat(t, st.Line("server").Uint, "conns"); conns != 1 {
		t.Fatalf("conns = %d, want 1", conns)
	}
	qs := st.Lines("query")
	if len(qs) != 1 || qs[0].ID != "q1" {
		t.Fatalf("query lines = %v, want one for q1", qs)
	}
	if subs := stat(t, qs[0].Uint, "subs"); subs != 1 {
		t.Fatalf("query line %s: want subs=1", qs[0])
	}
	if _, err := qs[0].Int("shard"); err == nil {
		t.Fatalf("query line %s: a plain server reports no placement", qs[0])
	}
	// An empty DCG still holds its own header; stored edges add to it.
	empty := stat(t, qs[0].Int, "held")
	if empty <= 0 {
		t.Fatalf("query line %s: want held > 0", qs[0])
	}
	person, err := c.Label("vertex", "P")
	if err != nil {
		t.Fatal(err)
	}
	edge, err := c.Label("edge", "e")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []turboflux.Update{
		turboflux.DeclareVertex(1, person), turboflux.DeclareVertex(2, person), turboflux.Insert(1, edge, 2),
	} {
		if _, err := c.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	if st, err = c.Stats(); err != nil {
		t.Fatal(err)
	}
	q := st.Find("query", "q1")
	if stat(t, q.Int, "pos") != 1 || stat(t, q.Int, "held") <= empty {
		t.Fatalf("query line %s after a match: want pos=1 and held > %d", q, empty)
	}
}

// TestStatsLeaderFollower covers role detection and link counters on a
// live replication pair.
func TestStatsLeaderFollower(t *testing.T) {
	_, leaderAddr, _ := startReplServer(t, leaderOpts(t.TempDir()))
	_, followerAddr, _ := startReplServer(t, followerOpts(t.TempDir(), leaderAddr))

	cl := dialTest(t, leaderAddr)
	cf := dialTest(t, followerAddr)
	waitForLSN(t, cl, replBootstrapLen)
	waitForLSN(t, cf, replBootstrapLen)

	ls, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if role, err := ls.Role(); err != nil || role != "leader" {
		t.Fatalf("leader role = %q, %v; want leader", role, err)
	}

	// Polls: each side learns of the link on its own goroutines, and a
	// client sees what either knows only through its STATS.
	waitUntil(t, 10*time.Second, "the follower to connect", func() bool {
		fs, err := cf.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if role, err := fs.Role(); err != nil || role != "follower" {
			t.Fatalf("follower role = %q, %v; want follower", role, err)
		}
		r := fs.Line("replica")
		if !stat(t, r.Bool, "connected") || stat(t, r.Uint, "applied_lsn") < replBootstrapLen {
			return false
		}
		if leader := stat(t, r.Str, "leader"); leader != leaderAddr {
			t.Fatalf("follower leader = %q, want %q", leader, leaderAddr)
		}
		return true
	})

	// The leader sees the follower once the link is up.
	waitUntil(t, 10*time.Second, "the leader to see the follower", func() bool {
		if ls, err = cl.Stats(); err != nil {
			t.Fatal(err)
		}
		fl := ls.Lines("follower")
		return len(fl) == 1 && stat(t, fl[0].Uint, "applied_lsn") >= replBootstrapLen
	})
}

// TestParseStatsCoordinator reads the coordinator payload shape from
// synthetic lines (the live path is covered by the shard e2e).
func TestParseStatsCoordinator(t *testing.T) {
	st := ParseStats([]string{
		"cluster role=coordinator shards=4 alive=3 seq=100 updates=90 events=42 conns=2",
		"shard 0 addr=127.0.0.1:7001 alive=true queries=6 seq=100 lag=0 ping_us=120 misses=0",
		"shard 1 addr=127.0.0.1:7002 alive=false queries=6 seq=80 lag=20 ping_us=-1 misses=3",
		"query q1 shard=0",
	})
	if role, err := st.Role(); err != nil || role != "coordinator" {
		t.Fatalf("role = %q, %v; want coordinator", role, err)
	}
	c := st.Line("cluster")
	if stat(t, c.Uint, "shards") != 4 || stat(t, c.Uint, "alive") != 3 || stat(t, c.Uint, "seq") != 100 {
		t.Fatalf("cluster line = %s", c)
	}
	if n := len(st.Lines("shard")); n != 2 {
		t.Fatalf("%d shard lines, want 2", n)
	}
	s1 := st.Find("shard", "1")
	if stat(t, s1.Bool, "alive") || stat(t, s1.Uint, "lag") != 20 || stat(t, s1.Int, "ping_us") != -1 || stat(t, s1.Uint, "misses") != 3 {
		t.Fatalf("shard 1 = %s", s1)
	}
	q := st.Find("query", "q1")
	if stat(t, q.Uint, "shard") != 0 {
		t.Fatalf("query line = %s", q)
	}
}

// TestStatsMissingOrMalformedKey: a key the line lacks, a malformed value,
// a line the payload lacks and an unknown role are each an error naming
// the key, never a zero.
func TestStatsMissingOrMalformedKey(t *testing.T) {
	st := ParseStats([]string{
		"server conns=zap policy=block queue_cap=1024 updates=0",
		"shard 3 addr=127.0.0.1:1 alive=maybe",
		"query q1 pos=-1",
	})
	for _, c := range []struct {
		read func() error
		want string
	}{
		{func() error { _, err := st.Line("server").Uint("seq"); return err }, `"server conns=zap policy=block queue_cap=1024 updates=0" has no seq`},
		{func() error { _, err := st.Line("server").Uint("conns"); return err }, `bad conns "zap"`},
		{func() error { _, err := st.Find("shard", "3").Bool("alive"); return err }, `bad alive "maybe"`},
		{func() error { _, err := st.Find("shard", "3").Str("ping_us"); return err }, "has no ping_us"},
		{func() error { _, err := st.Find("query", "q1").Uint("pos"); return err }, `bad pos "-1"`},
		{func() error { _, err := st.Find("query", "q2").Int("pos"); return err }, "STATS has no query q2 line (reading pos)"},
		{func() error { _, err := st.Line("mqo").Uint("subpats"); return err }, "STATS has no mqo line (reading subpats)"},
		{func() error { _, err := ParseStats([]string{"replica role=chief"}).Role(); return err }, `bad role "chief"`},
		{func() error { _, err := ParseStats([]string{"replica followers=1"}).Role(); return err }, "has no role"},
	} {
		if err := c.read(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("err = %v, want one containing %q", err, c.want)
		}
	}
	if v, err := st.Find("query", "q1").Int("pos"); err != nil || v != -1 {
		t.Errorf("query q1 pos = %d, %v; want -1", v, err)
	}
}
