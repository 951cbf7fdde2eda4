package servertest

import (
	"bytes"
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"turboflux"
	"turboflux/internal/server"
)

// UnsubscribeEndsStream checks where a subscription stream ends: an
// UNSUBSCRIBE's reply follows every line of the stream it ends. Each round
// races one update matching q, sent on a second connection, against
// UNSUBSCRIBE q + SUBSCRIBE q on the subscriber's connection, whose raw push
// stream is read in wire order. Every q line after the UNSUBSCRIBE reply
// must then belong to the new subscription: its sequence number is past the
// start the SUBSCRIBE reply names. The rounds run twice — with q the
// connection's only subscription, then beside r, which on a two-shard
// coordinator lives on q's shard and keeps their shared upstream open.
func UnsubscribeEndsStream(t *testing.T, start func() (*server.Front, error)) {
	const rounds = 200
	addr := serve(t, start)

	admin := dial(t, addr, server.DialOptions{})
	// Placement is least-loaded, lowest shard first: q and r share shard 0.
	for _, name := range []string{"q", "x", "r"} {
		if err := admin.Register(name, "(a:P)-[:e]->(b:P)"); err != nil {
			t.Fatal(err)
		}
	}
	p, err := admin.Label("vertex", "P")
	if err != nil {
		t.Fatal(err)
	}
	e, err := admin.Label("edge", "e")
	if err != nil {
		t.Fatal(err)
	}
	for v := turboflux.VertexID(1); v <= 2; v++ {
		if _, err := admin.DeclareVertex(v, p); err != nil {
			t.Fatal(err)
		}
	}

	var got capture
	sub := dial(t, addr, server.DialOptions{OnPush: got.onPush})
	insert := true
	for _, beside := range []string{"", "r"} {
		if beside != "" {
			if _, err := sub.Subscribe(beside); err != nil {
				t.Fatal(err)
			}
		}
		seq, err := sub.Subscribe("q")
		if err != nil {
			t.Fatal(err)
		}
		from := got.mark()
		// unsubscribe ends the current subscription: its reply ends the
		// stream, and every q line since the previous UNSUBSCRIBE reply is
		// the current subscription's.
		unsubscribe := func(round int) {
			t.Helper()
			if err := sub.Unsubscribe("q"); err != nil {
				t.Fatalf("round %d: UNSUBSCRIBE: %v", round, err)
			}
			to := got.mark()
			if line, ok := got.oldLine("q", from, to, seq); ok {
				t.Fatalf("round %d: %q arrived after an UNSUBSCRIBE reply; the subscription since starts after %d", round, line, seq)
			}
			from = to
		}
		for round := 0; round < rounds; round++ {
			u := turboflux.Insert(1, e, 2)
			if !insert {
				u = turboflux.Delete(1, e, 2)
			}
			insert = !insert
			acked := make(chan error, 1)
			//tf:goroutine test-update-sender
			go func() {
				_, err := admin.Apply(u)
				acked <- err
			}()
			unsubscribe(round)
			if seq, err = sub.Subscribe("q"); err != nil {
				t.Fatalf("round %d: SUBSCRIBE: %v", round, err)
			}
			if err := <-acked; err != nil {
				t.Fatalf("round %d: update: %v", round, err)
			}
		}
		unsubscribe(rounds)
		if beside != "" {
			if err := sub.Unsubscribe(beside); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// serve starts the front end on loopback and shuts it down at cleanup.
func serve(t *testing.T, start func() (*server.Front, error)) string {
	t.Helper()
	fe, err := start()
	if err != nil {
		t.Fatal(err)
	}
	if err := fe.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	//tf:goroutine test-accept-loop
	go func() { serveDone <- fe.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := fe.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return fe.Addr().String()
}

func dial(t *testing.T, addr string, opt server.DialOptions) *server.Client {
	t.Helper()
	c, err := server.DialWith(addr, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //tf:unchecked-ok test cleanup
	return c
}

// capture collects a connection's raw push stream through OnPush. The
// client hands a run over before it reads the reply behind it, so once a
// request returns, the capture holds every push line sent before its reply.
type capture struct {
	mu  sync.Mutex
	buf []byte
}

func (c *capture) onPush(run []byte, _ bool) {
	c.mu.Lock()
	c.buf = append(c.buf, run...)
	c.mu.Unlock()
}

// mark returns the capture's length: the position of the reply just read.
func (c *capture) mark() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

// oldLine returns the first line of query between from and to that is not
// an event past seq: an *EVICTED, or an event of an update at or before it.
func (c *capture) oldLine(query string, from, to int, seq uint64) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, line := range bytes.SplitAfter(c.buf[from:to], []byte{'\n'}) {
		f := bytes.Fields(line)
		if len(f) < 2 || string(f[1]) != query {
			continue
		}
		if string(f[0]) != "*EVENT" || len(f) < 3 {
			return string(line), true
		}
		if n, err := strconv.ParseUint(string(f[2]), 10, 64); err != nil || n <= seq {
			return string(line), true
		}
	}
	return "", false
}
