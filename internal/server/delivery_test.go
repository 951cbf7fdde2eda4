package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"turboflux"
	"turboflux/internal/graph"
)

// pushCapture collects a connection's raw push stream through OnPush.
type pushCapture struct {
	mu  sync.Mutex
	buf []byte
}

func (p *pushCapture) onPush(line []byte, _ bool) {
	p.mu.Lock()
	p.buf = append(p.buf, line...)
	p.mu.Unlock()
}

// waitFor waits until the line last arrived and returns the stream so far.
// Pushed in order after every other line, last ends the stream: anything
// missing or stray shows before it.
func (p *pushCapture) waitFor(t *testing.T, last []byte) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		if bytes.Contains(p.buf, last) {
			defer p.mu.Unlock()
			return append([]byte(nil), p.buf...)
		}
		got := len(p.buf)
		p.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("push stream: %d bytes after 10s, no %q", got, last)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConnTranscriptEmissionOrder pins the per-connection delivery
// contract: one connection subscribed to five queries receives exactly the
// bytes a single-threaded in-process MultiEngine replay renders in OnMatch
// order — one total order per connection, across queries — for sequential
// and parallel fan-out, single updates and BATCH frames of 256.
func TestConnTranscriptEmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, batch := range []int{1, 256} {
			workers, batch := workers, batch
			t.Run(fmt.Sprintf("workers=%d/batch=%d", workers, batch), func(t *testing.T) {
				runConnTranscript(t, workers, batch)
			})
		}
	}
}

func runConnTranscript(t *testing.T, workers, batch int) {
	const (
		nVertices = 12
		nUpdates  = 600
	)
	queries := []struct{ name, pattern string }{
		{"knows2", "(a:P)-[:knows]->(b:P)"},
		{"likes2", "(a:P)-[:likes]->(b:P)"},
		{"knows3", "(a:P)-[:knows]->(b:P), (b)-[:knows]->(c:P)"},
		{"mixed3", "(a:P)-[:knows]->(b:P), (b)-[:likes]->(c:P)"},
		{"fork3", "(a:P)-[:likes]->(b:P), (a)-[:knows]->(c:P)"},
	}
	vdict := turboflux.NewDict()
	vdict.Intern("P")
	edict := turboflux.NewDict()
	edict.Intern("knows")
	edict.Intern("likes")
	end := edict.Intern("end") // the last update's label, of no query the replay has
	var boot []turboflux.Update
	for v := turboflux.VertexID(1); v <= nVertices; v++ {
		boot = append(boot, turboflux.DeclareVertex(v, 0))
	}
	rng := rand.New(rand.NewSource(int64(workers*1000 + batch)))
	ups := make([]turboflux.Update, nUpdates)
	for i := range ups {
		from := turboflux.VertexID(rng.Intn(nVertices) + 1)
		to := turboflux.VertexID(rng.Intn(nVertices) + 1)
		label := turboflux.Label(rng.Intn(2))
		if rng.Intn(4) == 0 {
			ups[i] = turboflux.Delete(from, label, to)
		} else {
			ups[i] = turboflux.Insert(from, label, to)
		}
	}

	// The reference: a sequential replay rendering every match as OnMatch
	// reports it.
	g := turboflux.NewGraph()
	for _, u := range boot {
		u.Apply(g)
	}
	replay := turboflux.NewMultiEngine(g)
	replay.SetFanOutWorkers(1)
	var want []byte
	var seq uint64
	for _, q := range queries {
		parsed, _, err := turboflux.ParseQuery(q.pattern, vdict, edict)
		if err != nil {
			t.Fatal(err)
		}
		name := q.name
		err = replay.Register(name, parsed, turboflux.Options{OnMatch: func(positive bool, m []turboflux.VertexID) {
			want = append(appendEventLine(want, name, seq, positive, m), '\n')
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, u := range ups {
		seq = uint64(i + 1)
		if _, err := replay.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) == 0 {
		t.Fatal("replay produced no matches")
	}

	_, addr := startServer(t, Options{
		Slow:          PolicyBlock,
		QueueDepth:    64,
		VertexLabels:  vdict,
		EdgeLabels:    edict,
		Bootstrap:     boot,
		FanOutWorkers: workers,
	})
	// The server also runs an "end" query, matched only by one last
	// update: its event closes the stream.
	queries = append(queries, struct{ name, pattern string }{"end", "(a:P)-[:end]->(b:P)"})
	writer := dialTest(t, addr)
	for _, q := range queries {
		if err := writer.Register(q.name, q.pattern); err != nil {
			t.Fatal(err)
		}
	}
	var got pushCapture
	sub, err := DialWith(addr, DialOptions{OnPush: got.onPush})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sub.Close() }) //tf:unchecked-ok test cleanup
	for _, q := range queries {
		if _, err := sub.Subscribe(q.name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(ups); i += batch {
		if batch == 1 {
			if _, err := writer.Apply(ups[i]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := writer.Batch(ups[i:min(i+batch, len(ups))]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := writer.Apply(turboflux.Insert(1, end, 2)); err != nil {
		t.Fatal(err)
	}
	last := append(appendEventLine(nil, "end", uint64(len(ups)+1), true, []turboflux.VertexID{1, 2}), '\n')
	want = append(want, last...)
	if stream := got.waitFor(t, last); !bytes.Equal(stream, want) {
		i := 0
		for i < len(stream) && i < len(want) && stream[i] == want[i] {
			i++
		}
		t.Fatalf("push stream differs from the replay at byte %d of %d/%d:\n got ...%q\nwant ...%q",
			i, len(stream), len(want), stream[max(0, i-80):min(len(stream), i+80)], want[max(0, i-80):min(len(want), i+80)])
	}
}

// TestResubscribeAfterEviction: once the server has ended a subscription —
// the slow-consumer policy, or UNREGISTER — the same connection can
// subscribe to the query again, and UNSUBSCRIBE reports the ended
// subscription as absent instead of clearing it as a side effect.
func TestResubscribeAfterEviction(t *testing.T) {
	_, addr := startServer(t, Options{Slow: PolicyEvict, QueueDepth: 2})
	c := dialTest(t, addr)
	if err := c.Register("path", "(a:P)-[:e]->(b:P), (b)-[:e]->(c:P)"); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Label("vertex", "P")
	e, _ := c.Label("edge", "e")
	for v := turboflux.VertexID(1); v <= 7; v++ {
		if _, err := c.DeclareVertex(v, p); err != nil {
			t.Fatal(err)
		}
	}
	for v := turboflux.VertexID(3); v <= 7; v++ {
		if _, err := c.Insert(2, e, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Subscribe("path"); err != nil {
		t.Fatal(err)
	}
	// One update, five matches, capacity two: the burst overflows whatever
	// the writer's pace, so the policy evicts after two events.
	if ack, err := c.Insert(1, e, 2); err != nil || ack.Total != 5 {
		t.Fatalf("burst: %+v %v", ack, err)
	}
	expectEvicted := func(events int) {
		t.Helper()
		for i := 0; i <= events; i++ {
			select {
			case ev := <-c.Events():
				if ev.Evicted != (i == events) || ev.Query != "path" {
					t.Fatalf("push %d = %+v, want %d events then *EVICTED", i, ev, events)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("push %d of %d missing", i, events+1)
			}
		}
	}
	expectEvicted(2)
	if err := c.Unsubscribe("path"); err == nil {
		t.Fatal("UNSUBSCRIBE of an evicted subscription must fail")
	}
	if _, err := c.Subscribe("path"); err != nil {
		t.Fatalf("re-SUBSCRIBE after policy eviction: %v", err)
	}

	// UNREGISTER evicts the new subscription; after REGISTER it can be
	// taken out a third time, and that one delivers.
	if err := c.Unregister("path"); err != nil {
		t.Fatal(err)
	}
	expectEvicted(0)
	if err := c.Register("path", "(a:P)-[:e]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("path"); err != nil {
		t.Fatalf("re-SUBSCRIBE after UNREGISTER+REGISTER: %v", err)
	}
	ack, err := c.Insert(1, e, 3)
	if err != nil || ack.Total != 1 {
		t.Fatalf("insert: %+v %v", ack, err)
	}
	select {
	case ev := <-c.Events():
		if ev.Evicted || ev.Seq != ack.Seq {
			t.Fatalf("event = %+v, want seq %d", ev, ack.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event on the re-subscription")
	}
}

// TestEmitAllocs guards the actor side of delivery: with a subscribed,
// emitting query in steady state a match costs no allocation — not in the
// render, not in the policy step, not in the hand-over to the writer.
func TestEmitAllocs(t *testing.T) {
	var conns atomic.Int64
	a := newActor(turboflux.NewMultiEngine(turboflux.NewGraph()),
		nil, turboflux.NewDict(), turboflux.NewDict(), PolicyBlock, 64, &conns)
	defer a.host.Close() //tf:unchecked-ok pool release never fails
	// The mailbox is not started: this goroutine plays the engine, the
	// actor and, through take, the connection writer.
	if _, err := a.handle(request{kind: reqRegister, name: "social", arg: "(a:Person)-[:knows]->(b:Person)"}); err != nil {
		t.Fatal(err)
	}
	ob := newOutbox()
	if _, err := a.handle(request{kind: reqSubscribe, name: "social", sub: newSubscriber("social", 1, 64, ob)}); err != nil {
		t.Fatal(err)
	}
	l := a.subs["social"]
	if l == nil || len(l.subs) != 1 {
		t.Fatalf("subscriber list = %+v", l)
	}
	m := []graph.VertexID{123456, 7}
	var spare []byte
	round := func() {
		for i := 0; i < 64; i++ {
			a.emit(l, i%2 == 0, m)
		}
		a.flushBurst()
		a.wakeWriters()
		a.seq++
		spare, _ = ob.take(spare)
	}
	round() // grow the scratch and both outbox buffers
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("%.2f allocations per 64 matches, want 0", avg)
	}
	if a.events != 103*64 {
		t.Fatalf("delivered %d events, want %d", a.events, 103*64)
	}
}
