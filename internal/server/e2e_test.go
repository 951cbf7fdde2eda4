package server

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"turboflux"
)

// transcriptEntry is one match delivery in a per-query transcript, in a
// form comparable between the live subscription and an offline replay.
type transcriptEntry struct {
	seq     uint64
	sign    byte
	mapping string
}

func (e transcriptEntry) String() string {
	return fmt.Sprintf("%d%c%s", e.seq, e.sign, e.mapping)
}

func mappingKey(m []turboflux.VertexID) string {
	s := ""
	for i, v := range m {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(v)
	}
	return s
}

// TestServerE2EDeterminism drives one server with 4 concurrent writer
// clients, each also subscribed to every query, then checks the
// determinism contract: every subscriber's per-query event stream equals
// the transcript a single-threaded MultiEngine emits when replaying the
// same total update order (reconstructed from the acked sequence
// numbers). The workers=4 variant runs the same check against the
// parallel fan-out actor — two of its queries share the "knows" label so
// the worker pool actually executes barriers — and then asserts the
// STATS worker-utilization counters are populated.
func TestServerE2EDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			runServerE2EDeterminism(t, workers)
		})
	}
}

func runServerE2EDeterminism(t *testing.T, workers int) {
	const (
		nClients   = 4
		perClient  = 50
		nVertices  = 10
		labelP     = turboflux.Label(0) // "P"
		labelKnows = turboflux.Label(0) // "knows"
		labelLikes = turboflux.Label(1) // "likes"
	)
	queries := map[string]string{
		"knows2": "(a:P)-[:knows]->(b:P)",
		"likes2": "(a:P)-[:likes]->(b:P)",
		// A distinct tree shape on the same label: a reversed 2-path would
		// collapse into knows2's shared sub-pattern and ride its pool task,
		// leaving nothing to pool.
		"knows3": "(a:P)-[:knows]->(b:P), (b)-[:knows]->(c:P)",
	}

	vdict := turboflux.NewDict()
	vdict.Intern("P")
	edict := turboflux.NewDict()
	edict.Intern("knows")
	edict.Intern("likes")
	var boot []turboflux.Update
	for v := turboflux.VertexID(1); v <= nVertices; v++ {
		boot = append(boot, turboflux.DeclareVertex(v, labelP))
	}

	_, addr := startServer(t, Options{
		Slow:          PolicyBlock, // lossless: every subscriber must see the full transcript
		QueueDepth:    64,
		VertexLabels:  vdict,
		EdgeLabels:    edict,
		BootstrapFrom: bootText(t, boot),
		FanOutWorkers: workers,
	})

	admin := dialTest(t, addr)
	for name, pattern := range queries {
		if err := admin.Register(name, pattern); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}

	clients := make([]*Client, nClients)
	for i := range clients {
		// Events are drained only after every writer finishes, so the
		// Events channel must hold each client's whole transcript — knows3
		// alone emits thousands of 3-path matches on this dense workload,
		// far past Dial's default 256 buffer (a full channel would block the
		// read loop and deadlock the writers behind their own event
		// backlog).
		c, err := DialWith(addr, DialOptions{EventBuf: 1 << 19})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() }) //tf:unchecked-ok test cleanup
		clients[i] = c
		for name := range queries {
			if seq, err := clients[i].Subscribe(name); err != nil || seq != 0 {
				t.Fatalf("client %d subscribe %s: seq=%d err=%v", i, name, seq, err)
			}
		}
	}

	// Writers: each client applies a deterministic pseudo-random mix of
	// inserts and deletes; the acks record where each update landed in the
	// server's total order.
	type ackedUpdate struct {
		seq uint64
		u   turboflux.Update
	}
	acked := make([][]ackedUpdate, nClients)
	var wg sync.WaitGroup
	errCh := make(chan error, nClients)
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			for k := 0; k < perClient; k++ {
				from := turboflux.VertexID(rng.Intn(nVertices) + 1)
				to := turboflux.VertexID(rng.Intn(nVertices) + 1)
				label := labelKnows
				if rng.Intn(2) == 1 {
					label = labelLikes
				}
				u := turboflux.Insert(from, label, to)
				if rng.Intn(4) == 0 {
					u = turboflux.Delete(from, label, to)
				}
				ack, err := clients[i].Apply(u)
				if err != nil {
					errCh <- fmt.Errorf("client %d update %d: %w", i, k, err)
					return
				}
				acked[i] = append(acked[i], ackedUpdate{seq: ack.Seq, u: u})
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Reconstruct the total order from the acked sequence numbers; it must
	// be a contiguous 1..N with no duplicates.
	var total []ackedUpdate
	for _, c := range acked {
		total = append(total, c...)
	}
	sort.Slice(total, func(i, j int) bool { return total[i].seq < total[j].seq })
	if len(total) != nClients*perClient {
		t.Fatalf("acked %d updates, want %d", len(total), nClients*perClient)
	}
	for i, au := range total {
		if au.seq != uint64(i+1) {
			t.Fatalf("sequence numbers not contiguous: position %d has seq %d", i, au.seq)
		}
	}

	// Offline replay: a fresh single-threaded MultiEngine over the same
	// bootstrap and queries, fed the same total order, defines the expected
	// per-query transcripts.
	g := turboflux.NewGraph()
	for _, u := range boot {
		u.Apply(g)
	}
	replay := turboflux.NewMultiEngine(g)
	replay.SetFanOutWorkers(1) // the reference is the sequential path
	expected := map[string][]transcriptEntry{}
	var replaySeq uint64
	for name, pattern := range queries {
		q, _, err := turboflux.ParseQuery(pattern, vdict, edict)
		if err != nil {
			t.Fatal(err)
		}
		name := name
		err = replay.Register(name, q, turboflux.Options{
			OnMatch: func(positive bool, m []turboflux.VertexID) {
				sign := byte('+')
				if !positive {
					sign = '-'
				}
				expected[name] = append(expected[name], transcriptEntry{
					seq: replaySeq, sign: sign, mapping: mappingKey(m)})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, au := range total {
		replaySeq = au.seq
		if _, err := replay.Apply(au.u); err != nil {
			t.Fatalf("replay seq %d: %v", au.seq, err)
		}
	}
	want := 0
	for _, es := range expected {
		want += len(es)
	}
	if want == 0 {
		t.Fatal("replay produced no matches; the workload is too weak to test anything")
	}

	// Every subscriber must now deliver exactly those transcripts.
	for i, c := range clients {
		got := map[string][]transcriptEntry{}
		n := 0
		timeout := time.After(10 * time.Second)
		for n < want {
			select {
			case ev, ok := <-c.Events():
				if !ok {
					t.Fatalf("client %d: event stream closed after %d/%d events: %v", i, n, want, c.Err())
				}
				if ev.Evicted {
					t.Fatalf("client %d: evicted from %s under block policy", i, ev.Query)
				}
				sign := byte('+')
				if !ev.Positive {
					sign = '-'
				}
				got[ev.Query] = append(got[ev.Query], transcriptEntry{
					seq: ev.Seq, sign: sign, mapping: mappingKey(ev.Mapping)})
				n++
			case <-timeout:
				t.Fatalf("client %d: %d/%d events after 10s", i, n, want)
			}
		}
		select {
		case ev := <-c.Events():
			t.Fatalf("client %d: unexpected extra event %+v", i, ev)
		case <-time.After(50 * time.Millisecond):
		}
		for name, wantEntries := range expected {
			gotEntries := got[name]
			if len(gotEntries) != len(wantEntries) {
				t.Fatalf("client %d query %s: %d events, want %d", i, name, len(gotEntries), len(wantEntries))
			}
			for k := range wantEntries {
				if gotEntries[k] != wantEntries[k] {
					t.Fatalf("client %d query %s event %d: got %v, want %v",
						i, name, k, gotEntries[k], wantEntries[k])
				}
			}
		}
	}

	// STATS must surface the fan-out worker-utilization counters.
	st, err := admin.Stats()
	if err != nil {
		t.Fatal(err)
	}
	fanout := st.Line("fanout")
	if got := stat(t, fanout.Uint, "workers"); got != uint64(workers) {
		t.Fatalf("fanout workers = %d, want %d", got, workers)
	}
	if stat(t, fanout.Uint, "evals") == 0 {
		t.Fatalf("fanout evals = 0: %s", fanout)
	}
	if workers > 1 {
		// knows2 and knows3 share a label but not a tree shape, so "knows"
		// updates pool two sub-pattern tasks; likes2 is skipped on those
		// updates.
		if stat(t, fanout.Uint, "batches") == 0 || stat(t, fanout.Uint, "pooled") == 0 {
			t.Fatalf("parallel actor never pooled work: %s", fanout)
		}
		if stat(t, fanout.Uint, "skipped") == 0 {
			t.Fatalf("label routing never skipped an engine: %s", fanout)
		}
	}
}

// TestServerGracefulShutdownDurable checks the full shutdown sequence
// against a durable store: in-flight work finishes, subscriber queues are
// flushed to the socket, and the write-ahead log closes cleanly — a reopen
// finds no torn tail and the complete update history.
func TestServerGracefulShutdownDurable(t *testing.T) {
	const updates = 20
	dir := t.TempDir()

	vdict := turboflux.NewDict()
	vdict.Intern("P")
	edict := turboflux.NewDict()
	edict.Intern("knows")
	boot := []turboflux.Update{
		turboflux.DeclareVertex(1, 0),
		turboflux.DeclareVertex(2, 0),
	}
	s, err := New(Options{
		DataDir:       dir,
		Fsync:         "interval",
		VertexLabels:  vdict,
		EdgeLabels:    edict,
		BootstrapFrom: bootText(t, boot),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Recovery().Fresh {
		t.Fatalf("recovery = %+v, want fresh", s.Recovery())
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //tf:unchecked-ok test cleanup
	if err := c.Register("knows2", "(a:P)-[:knows]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe("knows2"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < updates; k++ {
		u := turboflux.Insert(1, 0, 2)
		if k%2 == 1 {
			u = turboflux.Delete(1, 0, 2)
		}
		if _, err := c.Apply(u); err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
	}

	// Shut down while the subscriber still has events in flight. The acks
	// above guarantee the events are enqueued; the shutdown contract says
	// they reach the socket before the connection closes.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	got := 0
	for ev := range c.Events() {
		if ev.Evicted {
			t.Fatalf("unexpected eviction %+v", ev)
		}
		got++
	}
	if got != updates {
		t.Fatalf("subscriber saw %d events, want %d flushed before close", got, updates)
	}

	// Reopen the store: a clean close leaves no torn tail and the full
	// journaled history (bootstrap + updates, nothing compacted away).
	d, err := turboflux.OpenDurableMulti(dir, turboflux.DurableMultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //tf:unchecked-ok test cleanup
	rec := d.Recovery()
	if rec.Fresh {
		t.Fatal("reopen must not be fresh")
	}
	if rec.TruncatedBytes != 0 {
		t.Fatalf("clean shutdown left %d torn bytes", rec.TruncatedBytes)
	}
	if want := len(boot) + updates; rec.SnapshotLSN == 0 && rec.Replayed != want {
		t.Fatalf("recovered %d updates (snapshot@%d), want %d", rec.Replayed, rec.SnapshotLSN, want)
	}
	// updates is even, so the edge was deleted last.
	if got := d.Graph().NumEdges(); got != 0 {
		t.Fatalf("recovered edges = %d, want 0", got)
	}
}
