package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"turboflux"
	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

// newTestActor builds an actor over a fresh in-memory MultiEngine, started
// and torn down with the test.
func newTestActor(t *testing.T, policy SlowPolicy, depth int) *actor {
	t.Helper()
	a := newActor(turboflux.NewMultiEngine(turboflux.NewGraph()),
		turboflux.NewDict(), turboflux.NewDict(), policy, depth)
	a.front = NewFront("server", a)
	a.box.Start(a.handle, a.shutdown)
	t.Cleanup(a.box.Stop)
	return a
}

// prepareSocial registers a Person-knows-Person query and declares n
// labeled vertices 1..n, returning the interned edge label.
func prepareSocial(t *testing.T, a *actor, n int) turboflux.Label {
	t.Helper()
	if _, err := a.box.Call(request{kind: reqRegister, name: "social", arg: "(a:Person)-[:knows]->(b:Person)"}); err != nil {
		t.Fatalf("register: %v", err)
	}
	person, _ := a.vdict.Lookup("Person")
	knows, ok := a.edict.Lookup("knows")
	if !ok {
		t.Fatal("knows not interned by REGISTER")
	}
	for i := 1; i <= n; i++ {
		u := stream.DeclareVertex(graph.VertexID(i), person)
		if _, err := a.box.Call(request{kind: reqApply, ups: []stream.Update{u}}); err != nil {
			t.Fatalf("declare %d: %v", i, err)
		}
	}
	return knows
}

// subscribeOutbox subscribes a writer-less outbox to query; the test plays
// the connection writer with takeEvents.
func subscribeOutbox(t *testing.T, a *actor, query string, depth int) *subscriber {
	t.Helper()
	sub := newSubscriber(query, 1, depth, newOutbox())
	if _, err := a.box.Call(request{kind: reqSubscribe, name: query, sub: sub}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	return sub
}

// takeEvents swaps the outbox's filling buffer out, as the writer would
// (releasing a blocked actor), and parses its lines.
func takeEvents(t *testing.T, ob *outbox) []Event {
	t.Helper()
	buf, ok := ob.take(nil)
	if !ok {
		t.Fatal("outbox shut")
	}
	var evs []Event
	for _, line := range strings.Split(strings.TrimSuffix(string(buf), "\n"), "\n") {
		ev, err := parseEvent(line)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// parkWriter parks a stand-in for ob's connection writer and returns a
// function that waits until the actor is blocked on ob's full queue: a
// blocking push wakes the parked writer — clearing parked and signalling
// ob.wake, under ob.mu — right before it waits on ob.drained, and it lets
// go of ob.mu only inside that wait, so the stand-in wakes only once the
// actor is blocked. Every request's end wakes the writer too, so no
// request may be in flight when parkWriter is called.
func parkWriter(t *testing.T, ob *outbox) (awaitBlocked func()) {
	ob.mu.Lock()
	ob.parked = true
	ob.mu.Unlock()
	woken := make(chan struct{})
	go func() {
		ob.mu.Lock()
		for ob.parked {
			ob.wake.Wait()
		}
		ob.mu.Unlock()
		close(woken)
	}()
	return func() {
		t.Helper()
		select {
		case <-woken:
		case <-time.After(10 * time.Second):
			t.Fatal("the actor never blocked on the full queue")
		}
	}
}

// waitUntil polls cond until it holds and fails t, naming what it waited
// for, once timeout has passed. It is for state no signal reaches the
// test from; each caller says which.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func actorStats(t *testing.T, a *actor) StatsPayload {
	t.Helper()
	resp, err := a.box.Call(request{kind: reqStats})
	if err != nil {
		t.Fatal(err)
	}
	return ParseStats(resp.lines)
}

// wantStat fails t unless l carries each key=value of want.
func wantStat(t *testing.T, l StatsLine, want ...string) {
	t.Helper()
	for _, kv := range want {
		k, v, _ := strings.Cut(kv, "=")
		if got := stat(t, l.Str, k); got != v {
			t.Fatalf("STATS line %s: %s=%s, want %s", l, k, got, v)
		}
	}
}

func TestActorPolicyDrop(t *testing.T) {
	a := newTestActor(t, PolicyDrop, 1)
	knows := prepareSocial(t, a, 4)
	sub := subscribeOutbox(t, a, "social", 1)
	// Three matches into a capacity-1 queue nobody drains: one queued, two
	// dropped, ingest never stalls.
	for i := 0; i < 3; i++ {
		u := stream.Insert(graph.VertexID(i+1), knows, graph.VertexID(i+2))
		resp, err := a.box.Call(request{kind: reqApply, ups: []stream.Update{u}})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if resp.total != 1 {
			t.Fatalf("insert %d: total = %d", i, resp.total)
		}
	}
	st := actorStats(t, a)
	wantStat(t, st.Line("server"), "dropped=2")
	wantStat(t, st.Find("sub", "social"), "depth=1", "cap=1", "dropped=2")
	if sub.finished() {
		t.Fatal("drop policy must not close the subscription")
	}
	// Stop the actor (happens-before via Stop) and check the counters.
	a.box.Stop()
	if sub.enqueued != 1 || sub.dropped != 2 {
		t.Fatalf("enqueued=%d dropped=%d, want 1/2", sub.enqueued, sub.dropped)
	}
	if d := sub.queued(); d != 1 {
		t.Fatalf("queue depth = %d", d)
	}
	if evs := takeEvents(t, sub.ob); len(evs) != 1 || evs[0].Seq == 0 || !evs[0].Positive {
		t.Fatalf("queued events = %+v", evs)
	}
}

func TestActorPolicyEvict(t *testing.T) {
	a := newTestActor(t, PolicyEvict, 1)
	knows := prepareSocial(t, a, 3)
	sub := subscribeOutbox(t, a, "social", 1)
	// First match fills the queue; the second overflows and cancels the
	// subscription instead of stalling or dropping silently.
	for i := 0; i < 2; i++ {
		u := stream.Insert(graph.VertexID(i+1), knows, graph.VertexID(i+2))
		if _, err := a.box.Call(request{kind: reqApply, ups: []stream.Update{u}}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if !sub.finished() {
		t.Fatal("overflow must close the subscription")
	}
	wantStat(t, actorStats(t, a).Line("server"), "evicted=1")
	// The event accepted before eviction is still there for the writer to
	// flush, followed in-band by the notice.
	evs := takeEvents(t, sub.ob)
	if len(evs) != 2 || evs[0].Evicted || evs[0].Seq != 4 || !evs[1].Evicted || evs[1].Query != "social" {
		t.Fatalf("outbox = %+v, want one event then *EVICTED", evs)
	}
}

func TestActorPolicyBlock(t *testing.T) {
	a := newTestActor(t, PolicyBlock, 1)
	knows := prepareSocial(t, a, 3)
	sub := subscribeOutbox(t, a, "social", 1)
	if _, err := a.box.Call(request{kind: reqApply, ups: []stream.Update{stream.Insert(1, knows, 2)}}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	// The queue is full: the next matching update must not be acked until
	// the subscriber drains — lossless backpressure.
	awaitBlocked := parkWriter(t, sub.ob)
	ack := make(chan response, 1)
	go func() {
		resp, err := a.box.Call(request{kind: reqApply, ups: []stream.Update{stream.Insert(2, knows, 3)}})
		if err == nil {
			ack <- resp
		}
	}()
	awaitBlocked()
	select {
	case resp := <-ack:
		t.Fatalf("blocked update acked early: %+v", resp)
	default:
	}
	// Three vertex declarations preceded the inserts, so the first match
	// carries sequence number 4.
	evs := takeEvents(t, sub.ob) // the writer's swap; the actor unblocks
	if len(evs) != 1 || evs[0].Seq != 4 || !evs[0].Positive {
		t.Fatalf("first events = %+v", evs)
	}
	select {
	case resp := <-ack:
		if resp.total != 1 {
			t.Fatalf("unblocked ack = %+v", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("update still blocked after drain")
	}
	if evs := takeEvents(t, sub.ob); len(evs) != 1 || evs[0].Seq != 5 {
		t.Fatalf("second events = %+v", evs)
	}
	// A blocked actor must also release when the subscription closes (the
	// connection-teardown path). The first insert fills the queue, the
	// second blocks.
	if _, err := a.box.Call(request{kind: reqApply, ups: []stream.Update{stream.Insert(1, knows, 3)}}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	awaitBlocked = parkWriter(t, sub.ob)
	done := make(chan struct{})
	go func() {
		a.box.Call(request{kind: reqApply, ups: []stream.Update{stream.Insert(2, knows, 1)}}) //tf:unchecked-ok only liveness matters
		close(done)
	}()
	awaitBlocked()
	sub.close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("closing the subscription did not release the actor")
	}
}

// TestActorPolicyBurst: one update emits five matches into a capacity-2
// queue. Block makes progress through the writer's swaps, never holding
// more than cap events per buffer; drop discards the newest three and
// counts each; evict delivers the two accepted events, then the notice.
func TestActorPolicyBurst(t *testing.T) {
	const fan, depth = 5, 2
	setup := func(t *testing.T, policy SlowPolicy) (*actor, *subscriber, stream.Update) {
		a := newTestActor(t, policy, depth)
		knows := prepareSocial(t, a, fan+2)
		if _, err := a.box.Call(request{kind: reqRegister, name: "path", arg: "(a:Person)-[:knows]->(b:Person), (b)-[:knows]->(c:Person)"}); err != nil {
			t.Fatalf("register: %v", err)
		}
		for i := 0; i < fan; i++ {
			u := stream.Insert(2, knows, graph.VertexID(i+3))
			if _, err := a.box.Call(request{kind: reqApply, ups: []stream.Update{u}}); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
		// Inserting 1->2 now completes fan 2-paths at once.
		return a, subscribeOutbox(t, a, "path", depth), stream.Insert(1, knows, 2)
	}
	check := func(t *testing.T, resp response, err error) response {
		t.Helper()
		if err != nil || resp.counts["path"] != fan {
			t.Fatalf("burst: %v %+v", err, resp)
		}
		return resp
	}
	apply := func(t *testing.T, a *actor, u stream.Update) {
		t.Helper()
		resp, err := a.box.Call(request{kind: reqApply, ups: []stream.Update{u}})
		check(t, resp, err)
	}

	t.Run("block", func(t *testing.T) {
		a, sub, u := setup(t, PolicyBlock)
		ack := make(chan response, 1)
		go func() {
			resp, err := a.box.Call(request{kind: reqApply, ups: []stream.Update{u}})
			if err != nil {
				t.Errorf("burst: %v", err)
			}
			ack <- resp
		}()
		var seqs []uint64
		for len(seqs) < fan {
			select {
			case resp := <-ack:
				t.Fatalf("acked with %d/%d events taken: %+v", len(seqs), fan, resp)
			default:
			}
			evs := takeEvents(t, sub.ob)
			if len(evs) > depth {
				t.Fatalf("one buffer held %d events, cap %d", len(evs), depth)
			}
			for _, ev := range evs {
				seqs = append(seqs, ev.Seq)
			}
		}
		resp := check(t, <-ack, nil)
		for _, seq := range seqs {
			if seq != resp.seq {
				t.Fatalf("event seqs %v, ack seq %d", seqs, resp.seq)
			}
		}
		wantStat(t, actorStats(t, a).Find("sub", "path"),
			fmt.Sprintf("enqueued=%d", fan), "dropped=0", fmt.Sprintf("max_depth=%d", depth))
	})
	t.Run("drop", func(t *testing.T) {
		a, sub, u := setup(t, PolicyDrop)
		apply(t, a, u)
		st := actorStats(t, a)
		wantStat(t, st.Line("server"), fmt.Sprintf("events=%d", depth), fmt.Sprintf("dropped=%d", fan-depth))
		wantStat(t, st.Find("sub", "path"), fmt.Sprintf("depth=%d", depth), fmt.Sprintf("cap=%d", depth),
			fmt.Sprintf("enqueued=%d", depth), fmt.Sprintf("dropped=%d", fan-depth), fmt.Sprintf("max_depth=%d", depth))
		if evs := takeEvents(t, sub.ob); len(evs) != depth {
			t.Fatalf("outbox = %+v, want the first %d events", evs, depth)
		}
	})
	t.Run("evict", func(t *testing.T) {
		a, sub, u := setup(t, PolicyEvict)
		apply(t, a, u)
		wantStat(t, actorStats(t, a).Line("server"), fmt.Sprintf("events=%d", depth), "dropped=0", "evicted=1")
		evs := takeEvents(t, sub.ob)
		if len(evs) != depth+1 || evs[0].Evicted || evs[1].Evicted || !evs[depth].Evicted {
			t.Fatalf("outbox = %+v, want %d events then *EVICTED", evs, depth)
		}
	})
}

// startServer is startReplServer for a test that never stops the server
// itself; it returns the server and its dial address.
func startServer(t *testing.T, opt Options) (*Front, string) {
	t.Helper()
	s, addr, _ := startReplServer(t, opt)
	return s, addr
}

func dialTest(t testing.TB, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //tf:unchecked-ok test cleanup
	return c
}

func TestServerBasics(t *testing.T) {
	_, addr := startServer(t, Options{})
	c := dialTest(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("social", "(a:Person)-[:knows]->(b:Person)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("social", "(a)-[:knows]->(b)"); err == nil {
		t.Fatal("duplicate register must fail")
	}
	names, err := c.Queries()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "social" {
		t.Fatalf("Queries = %v", names)
	}
	person, err := c.Label("vertex", "Person")
	if err != nil {
		t.Fatal(err)
	}
	knows, err := c.Label("edge", "knows")
	if err != nil {
		t.Fatal(err)
	}
	for v := turboflux.VertexID(1); v <= 4; v++ {
		if _, err := c.DeclareVertex(v, person); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := c.Insert(1, knows, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Total != 1 || ack.Counts["social"] != 1 {
		t.Fatalf("ack = %+v", ack)
	}
	if ack.Seq == 0 {
		t.Fatal("ack missing sequence number")
	}

	seq, err := c.Subscribe("social")
	if err != nil {
		t.Fatal(err)
	}
	if seq != ack.Seq {
		t.Fatalf("subscribe seq = %d, want %d", seq, ack.Seq)
	}
	if _, err := c.Subscribe("social"); err == nil {
		t.Fatal("duplicate subscribe must fail")
	}
	if _, err := c.Subscribe("nosuch"); err == nil {
		t.Fatal("subscribe to unknown query must fail")
	}

	ack2, err := c.Insert(2, knows, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev := <-c.Events()
	if ev.Query != "social" || !ev.Positive || ev.Seq != ack2.Seq {
		t.Fatalf("event = %+v", ev)
	}
	if len(ev.Mapping) != 2 || ev.Mapping[0] != 2 || ev.Mapping[1] != 3 {
		t.Fatalf("event mapping = %v", ev.Mapping)
	}
	if _, err := c.Delete(2, knows, 3); err != nil {
		t.Fatal(err)
	}
	ev = <-c.Events()
	if ev.Positive {
		t.Fatalf("expected negative event, got %+v", ev)
	}

	// Batch ingest, text and binary framing.
	batch := []turboflux.Update{
		turboflux.Insert(3, knows, 4),
		turboflux.Delete(3, knows, 4),
	}
	back, err := c.Batch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if back.Applied != 2 || back.Total != 2 {
		t.Fatalf("batch ack = %+v", back)
	}
	<-c.Events()
	<-c.Events()
	bback, err := c.BatchBinary(batch)
	if err != nil {
		t.Fatal(err)
	}
	if bback.Applied != 2 || bback.Total != 2 || bback.FirstSeq != back.FirstSeq+2 {
		t.Fatalf("binary batch ack = %+v after %+v", bback, back)
	}
	<-c.Events()
	<-c.Events()

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	stat(t, st.Line("server").Uint, "conns")
	stat(t, st.Line("apply_latency").Uint, "n")
	stat(t, st.Find("query", "social").Int, "pos")
	stat(t, st.Find("sub", "social").Uint, "conn")

	if err := c.Unsubscribe("social"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe("social"); err == nil {
		t.Fatal("double unsubscribe must fail")
	}
	if err := c.Unregister("social"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister("social"); err == nil {
		t.Fatal("double unregister must fail")
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
}

func TestServerBadInput(t *testing.T) {
	_, addr := startServer(t, Options{})
	c := dialTest(t, addr)
	// Protocol errors are per-request: the connection survives them.
	if _, err := c.do("NOSUCH", nil); err == nil {
		t.Fatal("unknown command must fail")
	}
	if _, err := c.do("i 1 2", nil); err == nil {
		t.Fatal("short update must fail")
	}
	if _, err := c.do("BATCH 2", []byte("i 1 2 3\nbogus line\n")); err == nil {
		t.Fatal("bad batch record must fail")
	}
	// The failed batch applied nothing and the connection is still usable.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	ack, err := c.Insert(1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Seq != 1 {
		t.Fatalf("seq = %d, want 1 (failed batch must not consume sequence numbers)", ack.Seq)
	}
}

func TestServerEvictedNoticeOnUnregister(t *testing.T) {
	_, addr := startServer(t, Options{})
	owner := dialTest(t, addr)
	watcher := dialTest(t, addr)

	if err := owner.Register("q", "(a:P)-[:e]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	if _, err := watcher.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	if err := owner.Unregister("q"); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-watcher.Events():
		if !ev.Evicted || ev.Query != "q" {
			t.Fatalf("event = %+v, want eviction notice for q", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no *EVICTED notice after UNREGISTER")
	}
}
