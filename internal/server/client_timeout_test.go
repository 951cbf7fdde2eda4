package server

// Client dial/request timeout behavior and the typed STATS view
// (ParseStats / StatsInfo) across server roles.

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

// TestStatsInfoStandalone covers the typed view of a plain server's
// STATS payload.
func TestStatsInfoStandalone(t *testing.T) {
	_, addr := startServer(t, Options{})
	c := dialTest(t, addr)
	if err := c.Register("q1", "(a:P)-[:e]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("q1"); err != nil {
		t.Fatal(err)
	}
	info, err := c.StatsInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "standalone" {
		t.Fatalf("role = %q, want standalone", info.Role)
	}
	if info.Conns != 1 {
		t.Fatalf("conns = %d, want 1", info.Conns)
	}
	if len(info.Queries) != 1 || info.Queries[0].Name != "q1" {
		t.Fatalf("queries = %+v, want one entry q1", info.Queries)
	}
	if info.Queries[0].Subs != 1 || info.Queries[0].Shard != -1 {
		t.Fatalf("query stat = %+v, want subs=1 shard=-1", info.Queries[0])
	}
	// An empty DCG still holds its own header; stored edges add to it.
	empty := info.Queries[0].Held
	if empty <= 0 {
		t.Fatalf("query stat = %+v, want held > 0", info.Queries[0])
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
	if info, err = c.StatsInfo(); err != nil {
		t.Fatal(err)
	}
	if info.Queries[0].Pos != 1 || info.Queries[0].Held <= empty {
		t.Fatalf("query stat = %+v after a match, want pos=1 and held > %d", info.Queries[0], empty)
	}
}

// TestStatsInfoLeaderFollower covers role detection and link counters on
// a live replication pair.
func TestStatsInfoLeaderFollower(t *testing.T) {
	_, leaderAddr, _ := startReplServer(t, leaderOpts(t.TempDir()))
	_, followerAddr, _ := startReplServer(t, followerOpts(t.TempDir(), leaderAddr))

	cl := dialTest(t, leaderAddr)
	cf := dialTest(t, followerAddr)
	waitForLSN(t, cl, replBootstrapLen)
	waitForLSN(t, cf, replBootstrapLen)

	li, err := cl.StatsInfo()
	if err != nil {
		t.Fatal(err)
	}
	if li.Role != "leader" {
		t.Fatalf("leader role = %q, want leader", li.Role)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		fi, err := cf.StatsInfo()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Role != "follower" {
			t.Fatalf("follower role = %q, want follower", fi.Role)
		}
		if fi.Connected && fi.AppliedLSN >= replBootstrapLen {
			if fi.Leader != leaderAddr {
				t.Fatalf("follower leader = %q, want %q", fi.Leader, leaderAddr)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never connected: %+v", fi)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The leader sees the follower once the link is up.
	deadline = time.Now().Add(10 * time.Second)
	for {
		li, err = cl.StatsInfo()
		if err != nil {
			t.Fatal(err)
		}
		if len(li.Followers) == 1 && li.Followers[0].AppliedLSN >= replBootstrapLen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader never saw the follower: %+v", li)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParseStatsCoordinator covers the coordinator payload shape against
// synthetic lines (the live path is covered by the shard e2e).
func TestParseStatsCoordinator(t *testing.T) {
	info, err := ParseStats([]string{
		"cluster role=coordinator shards=4 alive=3 seq=100 updates=90 events=42 conns=2",
		"shard 0 addr=127.0.0.1:7001 alive=true queries=6 seq=100 lag=0 ping_us=120 misses=0",
		"shard 1 addr=127.0.0.1:7002 alive=false queries=6 seq=80 lag=20 ping_us=-1 misses=3",
		"query q1 shard=0 subs=2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Role != "coordinator" {
		t.Fatalf("role = %q, want coordinator", info.Role)
	}
	if info.ShardsTotal != 4 || info.ShardsAlive != 3 || info.Seq != 100 {
		t.Fatalf("cluster counters = %+v", info)
	}
	if len(info.Shards) != 2 {
		t.Fatalf("shards = %+v, want 2", info.Shards)
	}
	s1 := info.Shards[1]
	if s1.ID != 1 || s1.Alive || s1.Lag != 20 || s1.PingUs != -1 || s1.Misses != 3 {
		t.Fatalf("shard 1 = %+v", s1)
	}
	if len(info.Queries) != 1 || info.Queries[0].Shard != 0 || info.Queries[0].Subs != 2 {
		t.Fatalf("queries = %+v", info.Queries)
	}
}

// TestParseStatsMalformed: malformed numeric values error instead of
// being silently zeroed.
func TestParseStatsMalformed(t *testing.T) {
	for _, lines := range [][]string{
		{"server conns=zap policy=block queue_cap=1024 seq=0 updates=0 events=0 dropped=0 evicted=0"},
		{"shard x addr=127.0.0.1:1 alive=true"},
		{"replica role=chief"},
		{"cluster role=coordinator shards=-2"},
	} {
		if _, err := ParseStats(lines); err == nil {
			t.Fatalf("ParseStats(%q) succeeded, want error", lines)
		}
	}
}
