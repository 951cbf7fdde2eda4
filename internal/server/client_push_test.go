package server

import (
	"bufio"
	"net"
	"testing"
	"time"
)

// pushRun is one OnPush call.
type pushRun struct {
	run  string
	more bool
}

// pipeClient starts a Client over an in-memory pipe whose OnPush records
// every run. A pipe delivers each Write to one Read whole (the client's
// buffer is larger than any write here), so what is buffered when a run
// is cut is exactly what the test wrote.
func pipeClient(t *testing.T) (c *Client, peer net.Conn, runs chan pushRun) {
	t.Helper()
	cc, peer := net.Pipe()
	runs = make(chan pushRun, 16) // more runs than a test makes: OnPush never blocks
	c = newClient(cc, DialOptions{OnPush: func(run []byte, more bool) {
		runs <- pushRun{string(run), more}
	}})
	t.Cleanup(func() {
		peer.Close()
		c.Close()
	})
	return c, peer, runs
}

func nextRun(t *testing.T, runs chan pushRun) pushRun {
	t.Helper()
	select {
	case r := <-runs:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("no OnPush run")
		return pushRun{}
	}
}

func write(t *testing.T, peer net.Conn, s string) {
	t.Helper()
	if _, err := peer.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
}

// TestClientPushRunSplitLine: OnPush gets whole push lines only. A line
// split across two reads is held back — more reports it buffered — and
// handed over once its terminator arrives; with nothing buffered behind a
// run, more is false.
func TestClientPushRunSplitLine(t *testing.T) {
	_, peer, runs := pipeClient(t)
	write(t, peer, "*EVENT q 1 + 1 2\n*EVENT q 2 - 1 2\n*EVENT q 3 +")
	if got, want := nextRun(t, runs), (pushRun{"*EVENT q 1 + 1 2\n*EVENT q 2 - 1 2\n", true}); got != want {
		t.Fatalf("first run = %+v, want %+v", got, want)
	}
	write(t, peer, " 3 4\n")
	if got, want := nextRun(t, runs), (pushRun{"*EVENT q 3 + 3 4\n", false}); got != want {
		t.Fatalf("completed line = %+v, want %+v", got, want)
	}
	write(t, peer, "*EVICTED q\n")
	if got, want := nextRun(t, runs), (pushRun{"*EVICTED q\n", false}); got != want {
		t.Fatalf("eviction = %+v, want %+v", got, want)
	}
}

// TestClientPushRunStopsAtReply: a run ends before a reply line, and
// replies interleaved with pushes — here a +DATA block with a push
// between its payload lines — reach the request in order, while every
// push reaches OnPush in order. A run cut short by a reply reports more
// false although input is buffered: a forwarder holding its flush for the
// next run could otherwise wait forever.
func TestClientPushRunStopsAtReply(t *testing.T) {
	c, peer, runs := pipeClient(t)
	stats := make(chan StatsPayload, 1)
	errs := make(chan error, 1)
	go func() {
		st, err := c.Stats()
		stats <- st
		errs <- err
	}()
	req, err := bufio.NewReader(peer).ReadString('\n')
	if err != nil || req != "STATS\n" {
		t.Fatalf("request = %q, %v", req, err)
	}
	write(t, peer, "*EVENT q 1 + 1\n*EVENT r 1 + 2\n+DATA 2\nserver a=1\n*EVENT q 2 + 3\nqueue b=2\n*EVENT q 3 + 4\n")
	for _, want := range []pushRun{
		{"*EVENT q 1 + 1\n*EVENT r 1 + 2\n", false},
		{"*EVENT q 2 + 3\n", false},
		{"*EVENT q 3 + 4\n", false},
	} {
		if got := nextRun(t, runs); got != want {
			t.Fatalf("run = %+v, want %+v", got, want)
		}
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if st := <-stats; len(st) != 2 || st[0].String() != "server a=1" || st[1].String() != "queue b=2" {
		t.Fatalf("STATS payload = %v", st)
	}
}
