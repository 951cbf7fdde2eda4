package server

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"turboflux"
	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

// pushCapture collects a connection's raw push stream through OnPush. The
// client hands pushed lines over before it reads the reply behind them.
type pushCapture struct {
	mu  sync.Mutex
	buf []byte
}

func (p *pushCapture) onPush(line []byte, _ bool) {
	p.mu.Lock()
	p.buf = append(p.buf, line...)
	p.mu.Unlock()
}

// stream returns the push stream so far.
func (p *pushCapture) stream() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]byte(nil), p.buf...)
}

// TestConnTranscriptEmissionOrderStress pins the per-connection delivery
// contract: one connection subscribed to six queries receives exactly the
// bytes a single-threaded in-process MultiEngine replay renders in OnMatch
// order — one total order per connection, across queries — for sequential
// and parallel fan-out, single updates and BATCH frames of 256. Two of the
// queries are twins of a seventh, mixed3, which nobody subscribes to: the
// server renders their bodies once, as mixed3's, and copies them. mixed3
// is unregistered between two frames, and its first twin renders for the
// other from then on.
func TestConnTranscriptEmissionOrderStress(t *testing.T) {
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
		{"mixed3a", "(a:P)-[:knows]->(b:P), (b)-[:likes]->(c:P)"},
		{"mixed3b", "(x:P)-[:knows]->(y:P), (y)-[:likes]->(z:P)"},
	}
	const (
		source = "mixed3" // the twins' source, never subscribed
		leave  = 256      // updates applied before the source is unregistered
	)
	vdict := turboflux.NewDict()
	vdict.Intern("P")
	edict := turboflux.NewDict()
	edict.Intern("knows")
	edict.Intern("likes")
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
			if name != source {
				want = append(appendEventLine(want, name, seq, positive, m), '\n')
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if replay.TwinOf("mixed3a") != source || replay.TwinOf("mixed3b") != source {
		t.Fatalf("twins of %s: mixed3a of %q, mixed3b of %q", source, replay.TwinOf("mixed3a"), replay.TwinOf("mixed3b"))
	}
	for i, u := range ups {
		if i == leave {
			replay.Unregister(source)
			if replay.TwinOf("mixed3a") != "" || replay.TwinOf("mixed3b") != "mixed3a" {
				t.Fatalf("after %s left: mixed3a a twin of %q, mixed3b of %q", source, replay.TwinOf("mixed3a"), replay.TwinOf("mixed3b"))
			}
		}
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
		BootstrapFrom: bootText(t, boot),
		FanOutWorkers: workers,
	})
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
		if q.name == source {
			continue
		}
		if _, err := sub.Subscribe(q.name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(ups); i += batch {
		if i == leave {
			if err := writer.Unregister(source); err != nil {
				t.Fatal(err)
			}
		}
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
	// An UNSUBSCRIBE's reply follows every line of the stream it ends: once
	// the last reply is read, every stream is complete.
	for _, q := range queries {
		if q.name == source {
			continue
		}
		if err := sub.Unsubscribe(q.name); err != nil {
			t.Fatal(err)
		}
	}
	if stream := got.stream(); !bytes.Equal(stream, want) {
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

// TestApplyRequestAllocs guards the one apply path: a single update line
// reaches the actor as a run of one in a reused array, and in steady state
// the request — handler, evaluation window, boundary hook — costs no
// allocation. The edge reaches the query's DCG but completes no match: an
// update that reports matches allocates the counts map its ack carries.
func TestApplyRequestAllocs(t *testing.T) {
	a := newActor(turboflux.NewMultiEngine(turboflux.NewGraph()),
		turboflux.NewDict(), turboflux.NewDict(), PolicyBlock, 64)
	a.front = NewFront("server", a)
	defer a.eng.Close() //tf:unchecked-ok pool release never fails
	if _, err := a.handle(request{kind: reqRegister, name: "social", arg: "(a:Person)-[:knows]->(b:Person)"}); err != nil {
		t.Fatal(err)
	}
	person, place := a.vdict.Intern("Person"), a.vdict.Intern("Place")
	knows := a.edict.Intern("knows")
	var one [1]turboflux.Update
	apply := func(u turboflux.Update) {
		one[0] = u
		if _, err := a.handle(request{kind: reqApply, ups: one[:]}); err != nil {
			t.Fatal(err)
		}
	}
	apply(turboflux.DeclareVertex(1, person))
	apply(turboflux.DeclareVertex(2, place))
	round := func() {
		apply(turboflux.Insert(1, knows, 2))
		apply(turboflux.Delete(1, knows, 2))
	}
	round() // grow the engine's scratch
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("%.2f allocations per insert/delete pair of single updates, want 0", avg)
	}
	if a.updates != 2+2*103 {
		t.Fatalf("applied %d updates, want %d", a.updates, 2+2*103)
	}
}

// TestBatchFrameAllocs guards the frame path: a BATCHB or BATCH frame read
// by Wire.ReadBatch and applied through the actor's reqApply costs no
// allocation in steady state — the body and the run are the connection's,
// reused frame to frame. The frame's edges reach the query's DCG but
// complete no match.
func TestBatchFrameAllocs(t *testing.T) {
	a := newActor(turboflux.NewMultiEngine(turboflux.NewGraph()),
		turboflux.NewDict(), turboflux.NewDict(), PolicyBlock, 64)
	a.front = NewFront("server", a)
	defer a.eng.Close() //tf:unchecked-ok pool release never fails
	if _, err := a.handle(request{kind: reqRegister, name: "social", arg: "(a:Person)-[:knows]->(b:Person)"}); err != nil {
		t.Fatal(err)
	}
	person, place := a.vdict.Intern("Person"), a.vdict.Intern("Place")
	knows := a.edict.Intern("knows")
	for _, u := range []turboflux.Update{
		turboflux.DeclareVertex(1, person), turboflux.DeclareVertex(2, place), turboflux.DeclareVertex(3, place),
	} {
		if _, err := a.handle(request{kind: reqApply, ups: []turboflux.Update{u}}); err != nil {
			t.Fatal(err)
		}
	}
	frame := []turboflux.Update{
		turboflux.Insert(1, knows, 2), turboflux.Insert(1, knows, 3),
		turboflux.Delete(1, knows, 2), turboflux.Delete(1, knows, 3),
	}
	var bin, text []byte
	for _, u := range frame {
		var err error
		if bin, err = stream.AppendBinary(bin, u); err != nil {
			t.Fatal(err)
		}
		text = append(append(text, u.String()...), '\n')
	}
	for _, tc := range []struct {
		req  Request
		body []byte
	}{
		{Request{Kind: KindBatchBin, Count: len(bin)}, bin},
		{Request{Kind: KindBatch, Count: len(frame)}, text},
	} {
		w := &Wire{br: bufio.NewReaderSize(&repeatReader{data: tc.body}, MaxLineBytes)}
		apply := func() {
			ups, ferr, perr := w.ReadBatch(tc.req)
			if ferr != nil || perr != nil || len(ups) != len(frame) {
				t.Fatalf("ReadBatch = %d updates, %v, %v", len(ups), ferr, perr)
			}
			if _, err := a.handle(request{kind: reqApply, ups: ups}); err != nil {
				t.Fatal(err)
			}
		}
		apply() // grow the Wire's buffers and the engine's scratch
		apply()
		if avg := testing.AllocsPerRun(100, apply); avg != 0 {
			t.Errorf("kind %d: %.2f allocations per frame, want 0", tc.req.Kind, avg)
		}
	}
}

// TestTwinGroupLinks follows the actor's twin lists through the
// requests that change them: a twin links to its source at REGISTER, the
// source renders bodies for its twins only in an update where one of them
// has a subscriber, and at the source's UNREGISTER the twins relink to the
// heir the engine chose.
func TestTwinGroupLinks(t *testing.T) {
	a := newActor(turboflux.NewMultiEngine(turboflux.NewGraph()),
		turboflux.NewDict(), turboflux.NewDict(), PolicyBlock, 64)
	a.front = NewFront("server", a)
	defer a.eng.Close() //tf:unchecked-ok pool release never fails
	do := func(req request) {
		t.Helper()
		if _, err := a.handle(req); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"src", "a", "b"} {
		do(request{kind: reqRegister, name: name, arg: "(a:Person)-[:knows]->(b:Person)"})
	}
	l, ta, tb := a.subs["src"], a.subs["a"], a.subs["b"]
	if l.src != nil || ta.src != l || tb.src != l || len(l.twins) != 2 {
		t.Fatalf("after REGISTER: a of %p, b of %p, src has %d twins; want both of src %p", ta.src, tb.src, len(l.twins), l)
	}
	m := []graph.VertexID{1, 2}
	a.emit(l, true, m)
	a.emit(ta, true, m)
	if len(l.bodies) != 0 {
		t.Fatalf("no twin subscribed, yet the source rendered %q", l.bodies)
	}
	a.seq++
	do(request{kind: reqSubscribe, name: "b", sub: newSubscriber("b", 1, 128, newOutbox())})
	a.emit(l, true, m)
	a.emit(tb, true, m)
	if want := appendEventBody(nil, true, m); !bytes.Equal(l.bodies, want) {
		t.Fatalf("with b subscribed the source rendered %q, want %q", l.bodies, want)
	}
	a.flushBurst()
	a.seq++
	do(request{kind: reqUnregister, name: "src"})
	if ta.src != nil || tb.src != ta || len(ta.twins) != 1 {
		t.Fatalf("after the source left: a of %p, b of %p; want b of a %p", ta.src, tb.src, ta)
	}
	do(request{kind: reqRegister, name: "c", arg: "(a:Person)-[:knows]->(b:Person)"})
	if tc := a.subs["c"]; tc.src != ta || len(ta.twins) != 2 {
		t.Fatalf("a late copy links to %p, a has %d twins; want a %p with 2", tc.src, len(ta.twins), ta)
	}
	do(request{kind: reqUnregister, name: "b"})
	if len(ta.twins) != 1 || ta.twins[0] != a.subs["c"] {
		t.Fatalf("after b left a's twins are %v, want c only", ta.twins)
	}
}

// repeatReader serves data over and over: an endless run of one frame.
type repeatReader struct {
	data []byte
	at   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.at:])
	r.at = (r.at + n) % len(r.data)
	return n, nil
}

// TestEmitAllocs guards the actor side of delivery: with a subscribed,
// emitting query and a subscribed twin of it in steady state a match costs
// no allocation — not in the render, not in the twin's copy of the
// source's body, not in the policy step, not in the hand-over to the
// writer.
func TestEmitAllocs(t *testing.T) {
	a := newActor(turboflux.NewMultiEngine(turboflux.NewGraph()),
		turboflux.NewDict(), turboflux.NewDict(), PolicyBlock, 64)
	a.front = NewFront("server", a)
	defer a.eng.Close() //tf:unchecked-ok pool release never fails
	// The mailbox is not started: this goroutine plays the engine, the
	// actor and, through take, the connection writer.
	ob := newOutbox()
	for _, name := range []string{"social", "twin"} {
		if _, err := a.handle(request{kind: reqRegister, name: name, arg: "(a:Person)-[:knows]->(b:Person)"}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.handle(request{kind: reqSubscribe, name: name, sub: newSubscriber(name, 1, 128, ob)}); err != nil {
			t.Fatal(err)
		}
	}
	l, tw := a.subs["social"], a.subs["twin"]
	if l == nil || len(l.subs) != 1 || tw == nil || len(tw.subs) != 1 || tw.src != l || len(l.twins) != 1 || l.twins[0] != tw {
		t.Fatalf("subscriber lists = %+v, %+v: want twin's source social", l, tw)
	}
	m := []graph.VertexID{123456, 7}
	var spare []byte
	round := func() {
		// The engine's order: the source's matches, then the twin's.
		for _, list := range []*subList{l, tw} {
			for i := 0; i < 64; i++ {
				a.emit(list, i%2 == 0, m)
			}
		}
		a.flushBurst()
		a.wakeWriters()
		a.seq++
		spare, _ = ob.take(spare)
	}
	round() // grow the scratch and both outbox buffers
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Fatalf("%.2f allocations per 2×64 matches, want 0", avg)
	}
	if a.events != 103*128 {
		t.Fatalf("delivered %d events, want %d", a.events, 103*128)
	}
	// The twin renders nothing itself: fed another mapping, its line still
	// carries the body its source rendered at the same position.
	a.emit(l, true, m)
	a.emit(tw, true, []graph.VertexID{8, 9})
	a.flushBurst()
	a.wakeWriters()
	spare, _ = ob.take(spare)
	seq := a.seq + 1
	want := append(appendEventLine(append(appendEventLine(nil, "social", seq, true, m), '\n'), "twin", seq, true, m), '\n')
	if !bytes.Equal(spare, want) {
		t.Fatalf("twin lines %q, want its source's bodies %q", spare, want)
	}
}
