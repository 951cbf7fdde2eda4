package shard

// Relay tests: a coordinator connection holds one upstream per shard, and
// the subscriptions riding it start, stop and end independently.

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"turboflux"
	"turboflux/internal/server"
)

// shardConns reads each shard's live connection count from its STATS.
func shardConns(t *testing.T, probes []*server.Client) []int {
	t.Helper()
	out := make([]int, len(probes))
	for i, p := range probes {
		st, err := p.Stats()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = int(stat(t, st.Line("server").Uint, "conns"))
	}
	return out
}

// TestRelayOneUpstreamPerShardStress: a client connection subscribed to 8
// queries over 2 shards opens one connection to each shard, and a second
// client connection one more each.
func TestRelayOneUpstreamPerShardStress(t *testing.T) {
	addr, shards, _ := startCluster(t, 2, Options{})
	admin := dialTest(t, addr)
	for i := 0; i < 8; i++ {
		if err := admin.Register(fmt.Sprintf("q%d", i), fmt.Sprintf("(a:P)-[:e%d]->(b:P)", i)); err != nil {
			t.Fatal(err)
		}
	}
	probes := []*server.Client{dialTest(t, shards[0]), dialTest(t, shards[1])}
	base := shardConns(t, probes)

	a := dialTest(t, addr)
	for i := 0; i < 8; i++ {
		if _, err := a.Subscribe(fmt.Sprintf("q%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range shardConns(t, probes) {
		if n != base[i]+1 {
			t.Fatalf("shard %d: %d connections after 8 subscriptions on one client connection, want %d", i, n, base[i]+1)
		}
	}
	b := dialTest(t, addr)
	for i := 0; i < 4; i++ {
		if _, err := b.Subscribe(fmt.Sprintf("q%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range shardConns(t, probes) {
		if n != base[i]+2 {
			t.Fatalf("shard %d: %d connections with two subscribed client connections, want %d", i, n, base[i]+2)
		}
	}
}

// eventWaiter reads a client's pushes and fails the test on anything the
// predicate rejects.
type eventWaiter struct {
	t        *testing.T
	c        *server.Client
	received int // *EVENT pushes read so far
}

// until reads pushes until done has seen what it waits for; every push
// goes through check first.
func (w *eventWaiter) until(check func(server.Event), done func(server.Event) bool) {
	w.t.Helper()
	for {
		select {
		case ev, ok := <-w.c.Events():
			if !ok {
				w.t.Fatal("push stream closed")
			}
			if !ev.Evicted {
				w.received++
			}
			check(ev)
			if done(ev) {
				return
			}
		case <-time.After(10 * time.Second):
			w.t.Fatal("timed out waiting for a push")
		}
	}
}

// TestRelayUnsubscribeWhileOthersEmitStress: q and r ride one upstream. After
// UNSUBSCRIBE q, an update matching both delivers r's event and never q's
// — the shard may still push q's line until it answers the upstream
// UNSUBSCRIBE, and the relay drops q's lines until then — and a
// re-SUBSCRIBE of q, which waits for that answer, streams from its new
// sequence number with no line of the old subscription behind it. The
// coordinator's STATS events= counts what was forwarded, which is what the
// client received.
func TestRelayUnsubscribeWhileOthersEmitStress(t *testing.T) {
	addr, _, _ := startCluster(t, 2, Options{})
	c := dialTest(t, addr)
	// Placement alternates: q and r on shard 0, x on shard 1.
	for _, name := range []string{"q", "x", "r"} {
		if err := c.Register(name, "(a:P)-[:e]->(b:P)"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range st.Lines("query") {
		if shard := stat(t, q.Uint, "shard"); q.ID != "x" && shard != 0 {
			t.Fatalf("%s placed on shard %d, want 0", q.ID, shard)
		}
	}
	p, _ := c.Label("vertex", "P")
	e, _ := c.Label("edge", "e")
	for v := turboflux.VertexID(1); v <= 2; v++ {
		if _, err := c.DeclareVertex(v, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"q", "r"} {
		if _, err := c.Subscribe(name); err != nil {
			t.Fatal(err)
		}
	}
	w := &eventWaiter{t: t, c: c}
	var qFrom uint64 // q's events must be past this
	check := func(ev server.Event) {
		if ev.Evicted {
			t.Fatalf("unexpected eviction of %q", ev.Query)
		}
		if ev.Query == "q" && ev.Seq <= qFrom {
			t.Fatalf("*EVENT q %d reached the client, but q was unsubscribed before it (re-subscribed at %d)", ev.Seq, qFrom)
		}
	}
	insert := true
	apply := func() server.Ack {
		var ack server.Ack
		var err error
		if insert {
			ack, err = c.Insert(1, e, 2)
		} else {
			ack, err = c.Delete(1, e, 2)
		}
		insert = !insert
		if err != nil || ack.Counts["q"] != 1 || ack.Counts["r"] != 1 {
			t.Fatalf("update: %+v, %v; want one match each for q and r", ack, err)
		}
		return ack
	}
	for round := 0; round < 20; round++ {
		if err := c.Unsubscribe("q"); err != nil {
			t.Fatal(err)
		}
		ack := apply()
		qFrom = ack.Seq // q's line of this update must never arrive
		w.until(check, func(ev server.Event) bool { return ev.Query == "r" && ev.Seq == ack.Seq })

		seq, err := c.Subscribe("q")
		if err != nil {
			t.Fatalf("round %d: re-SUBSCRIBE: %v", round, err)
		}
		if seq < ack.Seq {
			t.Fatalf("round %d: re-SUBSCRIBE starts after %d, before the update acked at %d", round, seq, ack.Seq)
		}
		qFrom = seq
		ack = apply()
		gotQ, gotR := false, false
		w.until(check, func(ev server.Event) bool {
			gotQ = gotQ || (ev.Query == "q" && ev.Seq == ack.Seq)
			gotR = gotR || (ev.Query == "r" && ev.Seq == ack.Seq)
			return gotQ && gotR
		})
	}
	if st, err = c.Stats(); err != nil {
		t.Fatal(err)
	}
	if events := stat(t, st.Line("cluster").Uint, "events"); events != uint64(w.received) {
		t.Fatalf("coordinator STATS events=%d, client received %d", events, w.received)
	}
}

// TestRelayEvictOneOfManyStress: UNREGISTER of one of several queries riding
// one upstream evicts only its subscription; the others keep streaming
// and stay subscribed.
func TestRelayEvictOneOfManyStress(t *testing.T) {
	addr, _, _ := startCluster(t, 2, Options{})
	c := dialTest(t, addr)
	names := []string{"a", "b", "c", "d", "e", "f"} // a, c, e on shard 0
	for _, name := range names {
		if err := c.Register(name, "(x:P)-[:l]->(y:P)"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Subscribe(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Unregister("c"); err != nil {
		t.Fatal(err)
	}
	w := &eventWaiter{t: t, c: c}
	w.until(func(ev server.Event) {
		if !ev.Evicted || ev.Query != "c" {
			t.Fatalf("push %+v, want *EVICTED c", ev)
		}
	}, func(server.Event) bool { return true })
	if err := c.Unsubscribe("c"); err == nil {
		t.Fatal("UNSUBSCRIBE of the evicted subscription must fail")
	}

	p, _ := c.Label("vertex", "P")
	l, _ := c.Label("edge", "l")
	for v := turboflux.VertexID(1); v <= 2; v++ {
		if _, err := c.DeclareVertex(v, p); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := c.Insert(1, l, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"a": true, "b": true, "d": true, "e": true, "f": true}
	w.until(func(ev server.Event) {
		if ev.Evicted || !want[ev.Query] || ev.Seq != ack.Seq {
			t.Fatalf("push %+v, want one event at %d for each of %v", ev, ack.Seq, want)
		}
		delete(want, ev.Query)
	}, func(server.Event) bool { return len(want) == 0 })
	for _, name := range []string{"a", "e"} {
		if err := c.Unsubscribe(name); err != nil {
			t.Fatalf("UNSUBSCRIBE %s, a survivor on the evicted query's upstream: %v", name, err)
		}
	}
}

// TestRelayFilterDropsStaleLinesStress drives forward's filter directly. While
// q's UNSUBSCRIBE is pending every q line is dropped, its old
// subscription's *EVICTED too, and r's lines pass; once the reply ends the
// pending state, the re-subscribed q's lines and eviction pass. A closing
// link forwards nothing.
func TestRelayFilterDropsStaleLinesStress(t *testing.T) {
	r := &relaySub{query: "r"}
	u := &upstream{
		live:    map[string]*relaySub{"r": r},
		pending: map[string]chan struct{}{"q": make(chan struct{})},
	}
	filter := func(run, want string, wantEvents uint64) {
		t.Helper()
		kept, events := u.filter([]byte(run))
		if string(kept) != want || events != wantEvents {
			t.Fatalf("filter(%q) = %q, %d events; want %q, %d", run, kept, events, want, wantEvents)
		}
	}

	filter("*EVENT q 5 + 1 2\n*EVENT r 5 + 1 2\n*EVICTED q\n*EVENT q 6 - 1 2\n", "*EVENT r 5 + 1 2\n", 1)
	done := u.pending["q"]
	u.unsubscribed("q")
	select {
	case <-done:
	default:
		t.Fatal("the reply did not release a re-SUBSCRIBE waiting on q")
	}
	if len(u.pending) != 0 {
		t.Fatalf("pending after the reply: %v", u.pending)
	}

	q := &relaySub{query: "q"}
	u.live["q"] = q
	u.pending["x"] = make(chan struct{}) // keeps the filter on
	filter("*EVENT q 10 + 1 2\n*EVICTED q\n", "*EVENT q 10 + 1 2\n*EVICTED q\n", 1)
	if !q.Finished() || u.live["q"] != nil {
		t.Fatalf("the new subscription's *EVICTED did not end its handle: finished=%t live=%v", q.Finished(), u.live)
	}
	if r.Finished() {
		t.Fatal("r ended")
	}

	u.closing = true
	filter("*EVENT r 11 + 1 2\n*EVICTED r\n", "", 0)
	if r.Finished() {
		t.Fatal("a closing link ended r's handle")
	}
}

// TestRelayStalledClientMeetsShardPolicyStress pins where a relayed
// subscription's slow-consumer policy lives: with the owning shard. The
// coordinator writes relayed lines on the upstream's read loop and keeps no
// queue of its own, so the only bound a client that stops reading meets is
// the shard's queue for the upstream, and the shard's policy (here: evict)
// ends the subscription. Ingest never waits on that client, and the client
// still receives a well-formed stream: its SUBSCRIBE reply, events in
// sequence order, then *EVICTED.
func TestRelayStalledClientMeetsShardPolicyStress(t *testing.T) {
	shard := startShardServerWith(t, server.Options{QueueDepth: 256, Slow: server.PolicyEvict})
	addr, _ := startCoordinator(t, Options{Shards: []string{shard}})
	admin := dialTest(t, addr)
	// A long name makes each *EVENT line about 130 bytes.
	q := "q" + strings.Repeat("x", 99)
	if err := admin.Register(q, "(a:P)-[:e]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	p, _ := admin.Label("vertex", "P")
	e, _ := admin.Label("edge", "e")
	for v := turboflux.VertexID(1); v <= 2; v++ {
		if _, err := admin.DeclareVertex(v, p); err != nil {
			t.Fatal(err)
		}
	}

	// Client A subscribes, reads the reply, and then reads nothing. It
	// keeps the default receive buffer: a few-KB one leaves the sender on
	// loopback waiting for zero-window probes, which back off to seconds
	// after a long stall, so A could not read the backlog in time.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() }) //tf:unchecked-ok test cleanup
	if _, err := fmt.Fprintf(nc, "SUBSCRIBE %s\n", q); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //tf:unchecked-ok a missed deadline fails the reads below
	br := bufio.NewReader(nc)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "+OK") {
		t.Fatalf("SUBSCRIBE reply %q, %v; want +OK", line, err)
	}

	// Writer C: each insert completes the one q match and each delete
	// retracts it, so every update emits one event. A frame's events fit
	// the shard's queue, which its writer drains between frames until A's
	// stall reaches it through the socket buffers on the way (several MB on
	// loopback, some 270 frames): frames of one event would need tens of
	// thousands of round trips to fill them.
	frame := make([]turboflux.Update, 256)
	for i := range frame {
		if frame[i] = turboflux.Insert(1, e, 2); i%2 == 1 {
			frame[i] = turboflux.Delete(1, e, 2)
		}
	}
	writer := dialTest(t, addr)
	probe := dialTest(t, shard)
	evicted := func() bool {
		st, err := probe.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return stat(t, st.Line("server").Uint, "evicted") >= 1
	}
	frames := 0
	for deadline := time.Now().Add(30 * time.Second); !evicted(); frames++ {
		if time.Now().After(deadline) {
			t.Fatalf("no eviction after %d frames", frames)
		}
		ack, err := writer.BatchBinary(frame)
		if err != nil || ack.Applied != len(frame) || ack.Total != int64(len(frame)) {
			t.Fatalf("frame %d: ack %+v, %v; want %d updates and matches acked", frames, ack, err, len(frame))
		}
	}

	// A reads to the end: events in sequence order, then *EVICTED as its
	// last push, which the reply to a PING sent after it follows.
	nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //tf:unchecked-ok a missed deadline fails the reads below
	var events int
	var last uint64
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d events: %v", events, err)
		}
		line = strings.TrimSuffix(line, "\n")
		if line == "*EVICTED "+q {
			break
		}
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "*EVENT" || f[1] != q {
			t.Fatalf("after %d events: push %.80q, want *EVENT %s", events, line, q)
		}
		seq, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil || seq < last {
			t.Fatalf("event seq %q after %d", f[2], last)
		}
		last = seq
		events++
	}
	if _, err := fmt.Fprintf(nc, "PING\n"); err != nil {
		t.Fatal(err)
	}
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "+OK") {
		t.Fatalf("after *EVICTED: %q, %v; want the PING reply", line, err)
	}
	if events == 0 {
		t.Fatal("the subscription was evicted before its first event")
	}
	st, err := admin.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n := stat(t, st.Line("cluster").Uint, "events"); n != uint64(events) {
		t.Fatalf("coordinator STATS events=%d, client received %d", n, events)
	}
	t.Logf("%d frames, %d events relayed before the eviction", frames, events)
}
