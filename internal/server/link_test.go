package server

// Follower-link tests: a real follower (New with Follow) replicating from
// a scripted leader that speaks the replication protocol by hand, so each
// test controls exactly what arrives on the wire.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"turboflux/internal/durable"
	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

// scriptFrames encodes the records of LSNs first..first+count-1 as CRC
// frames: record k inserts the edge k -(k%5)-> k+1.
func scriptFrames(t *testing.T, first, count int) []byte {
	t.Helper()
	var buf []byte
	var err error
	for k := first; k < first+count; k++ {
		u := stream.Insert(graph.VertexID(k), graph.Label(k%5), graph.VertexID(k+1))
		if buf, err = durable.AppendFrame(buf, u); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// writeFrames writes one *RFRAMES push (header and body) to rw.
func writeFrames(rw *bufio.ReadWriter, first uint64, frames []byte, count int) {
	rw.Write(appendRepl(nil, framesWord, first, uint64(count), uint64(len(frames)))) //tf:unchecked-ok test script
	rw.Write(frames)                                                                 //tf:unchecked-ok test script
}

// readAck reads one RACK line from the follower and returns its LSN.
func readAck(rw *bufio.ReadWriter) (uint64, error) {
	line, err := rw.ReadString('\n')
	if err != nil {
		return 0, err
	}
	p, err := parseReplLine(strings.TrimSpace(line))
	if err == nil && p.word != ackWord {
		err = fmt.Errorf("follower sent %q, want RACK", line)
	}
	return p.n[0], err
}

// holdUntilHangup reads until the follower closes the connection.
func holdUntilHangup(rw *bufio.ReadWriter) {
	for {
		if _, err := rw.ReadString('\n'); err != nil {
			return
		}
	}
}

// startScriptedLeader accepts replication handshakes on a loopback port
// and runs session against each, in turn: i counts sessions and applied is
// the LSN the follower's REPLICATE named. It stops with the test, after the
// servers started later (cleanups run last-in first-out).
func startScriptedLeader(t *testing.T, session func(i int, applied uint64, rw *bufio.ReadWriter)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	//tf:goroutine test-scripted-leader
	go func() {
		defer wg.Done()
		serveScript(t, ln, session)
	}()
	t.Cleanup(func() {
		ln.Close() //tf:unchecked-ok test teardown
		wg.Wait()
	})
	return ln.Addr().String()
}

// serveScript is startScriptedLeader's accept loop; it returns once ln is
// closed.
func serveScript(t *testing.T, ln net.Listener, session func(i int, applied uint64, rw *bufio.ReadWriter)) {
	for i := 0; ; i++ {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		nc.SetDeadline(time.Now().Add(20 * time.Second)) //tf:unchecked-ok test conn
		rw := bufio.NewReadWriter(bufio.NewReader(nc), bufio.NewWriter(nc))
		var applied uint64
		if line, err := rw.ReadString('\n'); err != nil {
			t.Errorf("session %d: reading the handshake: %v", i, err)
		} else if _, err := fmt.Sscanf(line, "REPLICATE %d", &applied); err != nil {
			t.Errorf("bad handshake %q: %v", line, err)
		} else {
			session(i, applied, rw)
		}
		nc.Close() //tf:unchecked-ok test teardown
	}
}

// startFollower starts a real follower of leader over a fresh directory.
func startFollower(t *testing.T, leader string) (*Client, func()) {
	t.Helper()
	_, addr, stop := startReplServer(t, followerOpts(t.TempDir(), leader))
	return dialTest(t, addr), stop
}

// replicaLine reads the follower's STATS replica line.
func replicaLine(t *testing.T, c *Client) StatsLine {
	t.Helper()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.Line("replica")
}

// TestLinkAppliesStream drives a follower through a handshake, a catch-up
// chunk, a live chunk and a ping: it acks 5, 8 and 8 and holds the eight
// records, evaluated once each.
func TestLinkAppliesStream(t *testing.T) {
	acks := make(chan uint64, 3)
	leader := startScriptedLeader(t, func(i int, applied uint64, rw *bufio.ReadWriter) {
		if i > 0 || applied != 0 {
			t.Errorf("session %d handshake named LSN %d, want one session from 0", i, applied)
			return
		}
		fmt.Fprintf(rw, "+OK 5\n")
		writeFrames(rw, 1, scriptFrames(t, 1, 5), 5)
		writeFrames(rw, 6, scriptFrames(t, 6, 3), 3)
		rw.Write(appendRepl(nil, pingWord, 8)) //tf:unchecked-ok test script
		rw.Flush()
		for j := 0; j < 3; j++ {
			lsn, err := readAck(rw)
			if err != nil {
				t.Errorf("ack %d: %v", j, err)
				return
			}
			acks <- lsn
		}
		holdUntilHangup(rw)
	})
	cf, _ := startFollower(t, leader)

	for i, want := range []uint64{5, 8, 8} {
		select {
		case got := <-acks:
			if got != want {
				t.Fatalf("ack %d = %d, want %d", i, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for ack %d", i)
		}
	}
	st, err := cf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if lsn, n := stat(t, st.Line("wal").Uint, "lsn"), stat(t, st.Line("server").Uint, "updates"); lsn != 8 || n != 8 {
		t.Fatalf("follower at LSN %d with %d updates evaluated, want 8 and 8", lsn, n)
	}
	if rl := st.Line("replica"); !stat(t, rl.Bool, "connected") || stat(t, rl.Uint, "leader_lsn") != 8 {
		t.Fatalf("follower replica line %s: want connected=true leader_lsn=8", rl)
	}
}

// TestLinkCorruptFrameResume ships a chunk whose second frame is corrupt:
// the follower must refuse the whole chunk, hang up and reconnect naming
// only the clean prefix; the leader then re-sends with an overlap, and the
// follower applies each record exactly once.
func TestLinkCorruptFrameResume(t *testing.T) {
	resumed := make(chan struct{})
	leader := startScriptedLeader(t, func(i int, applied uint64, rw *bufio.ReadWriter) {
		switch i {
		case 0:
			if applied != 0 {
				t.Errorf("session 0 handshake named LSN %d, want 0", applied)
			}
			fmt.Fprintf(rw, "+OK 6\n")
			writeFrames(rw, 1, scriptFrames(t, 1, 3), 3)
			b := scriptFrames(t, 4, 3)
			b[len(b)/2] ^= 0x10
			writeFrames(rw, 4, b, 3)
			rw.Flush()
			if lsn, err := readAck(rw); err != nil || lsn != 3 {
				t.Errorf("session 0 ack = %d, %v; want 3", lsn, err)
			}
			holdUntilHangup(rw)
		case 1:
			if applied != 3 {
				t.Errorf("session 1 handshake named LSN %d, want 3", applied)
			}
			fmt.Fprintf(rw, "+OK 6\n")
			writeFrames(rw, 2, scriptFrames(t, 2, 5), 5) // 2..3 again, then 4..6
			rw.Flush()
			if lsn, err := readAck(rw); err != nil || lsn != 6 {
				t.Errorf("session 1 ack = %d, %v; want 6", lsn, err)
			}
			close(resumed)
			holdUntilHangup(rw)
		default:
			t.Errorf("unexpected session %d", i)
		}
	})
	cf, _ := startFollower(t, leader)

	select {
	case <-resumed:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the resumed session")
	}
	st, err := cf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if lsn, n := stat(t, st.Line("wal").Uint, "lsn"), stat(t, st.Line("server").Uint, "updates"); lsn != 6 || n != 6 {
		t.Fatalf("follower at LSN %d with %d updates evaluated, want 6 and 6 (each record once)", lsn, n)
	}
}

// TestLinkReconnectBackoff starts a follower while its leader's port is
// closed: the link keeps dialing with backoff, and connects once the port
// comes back.
func TestLinkReconnectBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //tf:unchecked-ok freeing the port on purpose

	cf, stopFollower := startFollower(t, addr)
	// The link dials at once and again after 100 ms and 200 ms more of
	// backoff: by 800 ms at least three dials have failed.
	time.Sleep(800 * time.Millisecond)
	if stat(t, replicaLine(t, cf).Bool, "connected") {
		t.Fatal("follower connected to a closed port")
	}
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	//tf:goroutine test-late-leader
	go func() {
		defer wg.Done()
		serveScript(t, ln, func(i int, applied uint64, rw *bufio.ReadWriter) {
			fmt.Fprintf(rw, "+OK 0\n")
			rw.Write(appendRepl(nil, pingWord, 0)) //tf:unchecked-ok test script
			rw.Flush()
			holdUntilHangup(rw)
		})
	}()
	t.Cleanup(func() {
		stopFollower() // ends the session the late leader holds
		ln.Close()     //tf:unchecked-ok test teardown
		wg.Wait()
	})
	// A poll: the link's state reaches a client only through STATS.
	waitUntil(t, 15*time.Second, "the follower to connect", func() bool {
		return stat(t, replicaLine(t, cf).Bool, "connected")
	})
}

// TestLinkStopInterruptsBlockedRead shuts a follower down while its link
// waits on a leader that handshook and then went silent: Shutdown must
// return within 5 s, well inside the link's 15 s read timeout.
func TestLinkStopInterruptsBlockedRead(t *testing.T) {
	leader := startScriptedLeader(t, func(i int, applied uint64, rw *bufio.ReadWriter) {
		fmt.Fprintf(rw, "+OK 0\n")
		rw.Flush()
		holdUntilHangup(rw)
	})
	f, _, err := New(followerOpts(t.TempDir(), leader))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- f.Serve() }()
	cf, err := Dial(f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// The link reports connected right before it reads its first push, and
	// the leader sends none: from here on the link is in, or about to
	// enter, that read. A blocked read is not observable from outside, so
	// the test waits for the last step before it.
	waitUntil(t, 10*time.Second, "the follower to connect", func() bool {
		return stat(t, replicaLine(t, cf).Bool, "connected")
	})
	cf.Close() //tf:unchecked-ok test teardown

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stopped := make(chan error, 1)
	go func() { stopped <- f.Shutdown(ctx) }()
	select {
	case err := <-stopped:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not interrupt the link's blocked read")
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestLinkRefusesBadHeaders sends, one session each, a malformed or
// oversized push header with no body: the follower must hang up at once,
// without waiting for a body it would have to allocate, and reconnect
// having applied nothing. A last session shows the link still applies a
// good chunk.
func TestLinkRefusesBadHeaders(t *testing.T) {
	bad := []string{
		"", "*RSNAP", "*RSNAP x 10", "*RSNAP 1 -5", "*RSNAP 1 0",
		"*RSNAP 1 " + strconv.Itoa(maxSnapshotBytes+1),
		"*RFRAMES 1 2", "*RFRAMES 0 1 10", "*RFRAMES 1 0 10", "*RFRAMES 1 1 0",
		"*RFRAMES 1 1 " + strconv.Itoa(maxFramesBytes+1),
		"*RFRAMES 1 " + strconv.Itoa(maxChunkRecords+1) + " 10",
		"*RPING", "*RPING x", "*RPING 1 2", "*BOGUS 1", "RACK 5",
		"*RPING " + strings.Repeat("9", 70_000),
	}
	done := make(chan struct{})
	leader := startScriptedLeader(t, func(i int, applied uint64, rw *bufio.ReadWriter) {
		if applied != 0 {
			t.Errorf("session %d handshake named LSN %d, want 0", i, applied)
		}
		fmt.Fprintf(rw, "+OK 0\n")
		if i == len(bad) {
			writeFrames(rw, 1, scriptFrames(t, 1, 2), 2)
			rw.Flush()
			if lsn, err := readAck(rw); err != nil || lsn != 2 {
				t.Errorf("last session ack = %d, %v; want 2", lsn, err)
			}
			close(done)
			holdUntilHangup(rw)
			return
		}
		fmt.Fprintf(rw, "%s\n", bad[i])
		rw.Flush()
		start := time.Now()
		if line, err := rw.ReadString('\n'); err == nil {
			t.Errorf("header %q: follower answered %q, want a hang-up", clip(bad[i]), line)
		} else if d := time.Since(start); d > 5*time.Second {
			t.Errorf("header %q: follower hung up after %v, want at once", clip(bad[i]), d)
		}
	})
	startFollower(t, leader)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the sessions")
	}
}
