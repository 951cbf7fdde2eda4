package replica

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"turboflux/internal/durable"
	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

func TestCodecRoundTrip(t *testing.T) {
	cases := []struct {
		line string
		want push
	}{
		{string(AppendSnapHeader(nil, 42, 1000)), push{Kind: pushSnap, LSN: 42, NBytes: 1000}},
		{string(AppendFramesHeader(nil, 7, 3, 99)), push{Kind: pushFrames, First: 7, Count: 3, NBytes: 99}},
		{string(AppendPing(nil, 123)), push{Kind: pushPing, LSN: 123}},
	}
	for _, c := range cases {
		got, err := parsePush(strings.TrimSuffix(c.line, "\n"))
		if err != nil {
			t.Fatalf("parsePush(%q): %v", c.line, err)
		}
		if got != c.want {
			t.Fatalf("parsePush(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}

	ackLine := string(AppendAck(nil, 77))
	if !IsAck(strings.TrimSuffix(ackLine, "\n")) {
		t.Fatalf("IsAck(%q) = false", ackLine)
	}
	lsn, err := ParseAck(strings.TrimSuffix(ackLine, "\n"))
	if err != nil || lsn != 77 {
		t.Fatalf("ParseAck(%q) = %d, %v", ackLine, lsn, err)
	}

	for _, bad := range []string{
		"", "*RSNAP", "*RSNAP x 10", "*RSNAP 1 -5", "*RSNAP 1 99999999999999",
		"*RFRAMES 1 2", "*RFRAMES 0 1 10", "*RFRAMES 1 0 10", "*RFRAMES 1 1 0",
		"*RPING", "*RPING x", "*BOGUS 1",
	} {
		if _, err := parsePush(bad); err == nil {
			t.Fatalf("parsePush(%q) succeeded, want error", bad)
		}
	}
	for _, bad := range []string{"", "RACK", "RACK x", "ACK 5"} {
		if _, err := ParseAck(bad); err == nil {
			t.Fatalf("ParseAck(%q) succeeded, want error", bad)
		}
	}
}

func TestFeedOverrun(t *testing.T) {
	f := NewFeed(2)
	if !f.Offer(Chunk{First: 1, Count: 1}) || !f.Offer(Chunk{First: 2, Count: 1}) {
		t.Fatal("offers within capacity failed")
	}
	if f.Offer(Chunk{First: 3, Count: 1}) {
		t.Fatal("offer beyond capacity succeeded")
	}
	if !f.Overrun() {
		t.Fatal("feed not marked overrun")
	}
	// The queued chunks drain, then the channel closes.
	var got []uint64
	for c := range f.Chunks() {
		got = append(got, c.First)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("drained %v, want [1 2]", got)
	}
	// Offers after overrun stay rejected.
	if f.Offer(Chunk{First: 4, Count: 1}) {
		t.Fatal("offer after overrun succeeded")
	}
}

func TestFeedClose(t *testing.T) {
	f := NewFeed(4)
	f.Offer(Chunk{First: 1, Count: 1})
	f.Close()
	f.Close() // idempotent
	n := 0
	for range f.Chunks() {
		n++
	}
	if n != 1 {
		t.Fatalf("drained %d chunks, want 1", n)
	}
	if f.Overrun() {
		t.Fatal("clean close reported as overrun")
	}
	if f.Offer(Chunk{First: 2, Count: 1}) {
		t.Fatal("offer after close succeeded")
	}
}

// testFrames encodes updates n..m (1-based LSNs) as CRC frames.
func testFrames(t *testing.T, first, count int) []byte {
	t.Helper()
	var buf []byte
	var err error
	for i := 0; i < count; i++ {
		k := first + i
		u := stream.Insert(graph.VertexID(k), graph.Label(k%5), graph.VertexID(k+1))
		if buf, err = durable.AppendFrame(buf, u); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func TestChunkSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNone, SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //tf:unchecked-ok test teardown
	for i := 1; i <= 100; i++ {
		u := stream.Insert(graph.VertexID(i), 0, graph.VertexID(i+1))
		if _, err := s.Append(u); err != nil {
			t.Fatal(err)
		}
		u.Apply(s.Graph())
	}
	p, err := s.CatchupPlan(10)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()

	next := uint64(11)
	err = ChunkSegments(p.Segments, 10, func(c Chunk) error {
		if c.First != next {
			t.Fatalf("chunk starts at %d, want %d", c.First, next)
		}
		// Every frame decodes and the count matches.
		b := c.Data
		for i := 0; i < c.Count; i++ {
			if _, n, err := durable.DecodeFrame(b); err != nil {
				return err
			} else {
				b = b[n:]
			}
		}
		if len(b) != 0 {
			t.Fatalf("chunk has %d trailing bytes", len(b))
		}
		next = c.Last() + 1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != 101 {
		t.Fatalf("chunks cover through %d, want 100", next-1)
	}
}

// scriptedLeader is a fake leader: it accepts replication handshakes and
// runs a per-session script against the follower link under test.
type scriptedLeader struct {
	t  *testing.T
	ln net.Listener
	wg sync.WaitGroup
}

func newScriptedLeader(t *testing.T, session func(i int, applied uint64, rw *bufio.ReadWriter, nc net.Conn)) *scriptedLeader {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &scriptedLeader{t: t, ln: ln}
	sl.wg.Add(1)
	//tf:goroutine test-scripted-leader
	go func() {
		defer sl.wg.Done()
		for i := 0; ; i++ {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed: test over
			}
			rw := bufio.NewReadWriter(bufio.NewReader(nc), bufio.NewWriter(nc))
			line, err := rw.ReadString('\n')
			if err != nil {
				nc.Close() //tf:unchecked-ok test teardown
				continue
			}
			var applied uint64
			if _, err := fmt.Sscanf(line, "REPLICATE %d", &applied); err != nil {
				t.Errorf("bad handshake %q: %v", line, err)
				nc.Close() //tf:unchecked-ok test teardown
				continue
			}
			session(i, applied, rw, nc)
			nc.Close() //tf:unchecked-ok test teardown
		}
	}()
	return sl
}

func (sl *scriptedLeader) close() {
	sl.ln.Close() //tf:unchecked-ok test teardown
	sl.wg.Wait()
}

// applyingCallbacks returns callbacks that decode and count applied
// updates, mimicking the follower engine.
func applyingCallbacks(t *testing.T, applied *uint64, mu *sync.Mutex) Callbacks {
	return Callbacks{
		Applied: func() uint64 { mu.Lock(); defer mu.Unlock(); return *applied },
		Seed: func(lsn uint64, data []byte) (uint64, error) {
			mu.Lock()
			defer mu.Unlock()
			*applied = lsn
			return lsn, nil
		},
		Apply: func(first uint64, count int, frames []byte) (uint64, error) {
			mu.Lock()
			defer mu.Unlock()
			if first != *applied+1 {
				return *applied, fmt.Errorf("apply gap: first=%d applied=%d", first, *applied)
			}
			for i := 0; i < count; i++ {
				_, n, err := durable.DecodeFrame(frames)
				if err != nil {
					return *applied, err
				}
				frames = frames[n:]
			}
			*applied = first + uint64(count) - 1
			return *applied, nil
		},
	}
}

// TestLinkAppliesStream drives a link through handshake, catch-up chunk,
// live chunk and ping, checking acks and applied progression.
func TestLinkAppliesStream(t *testing.T) {
	var mu sync.Mutex
	var applied uint64
	acks := make(chan uint64, 16)

	sl := newScriptedLeader(t, func(i int, got uint64, rw *bufio.ReadWriter, nc net.Conn) {
		if i > 0 {
			return // only the first session scripts anything
		}
		if got != 0 {
			t.Errorf("first handshake applied=%d, want 0", got)
		}
		fmt.Fprintf(rw, "+OK 5\n")
		// Catch-up: LSNs 1..5 in one chunk, then live: 6..8, then ping.
		b := testFrames(t, 1, 5)
		rw.Write(AppendFramesHeader(nil, 1, 5, len(b))) //tf:unchecked-ok test script
		rw.Write(b)                                     //tf:unchecked-ok test script
		b = testFrames(t, 6, 3)
		rw.Write(AppendFramesHeader(nil, 6, 3, len(b))) //tf:unchecked-ok test script
		rw.Write(b)                                     //tf:unchecked-ok test script
		rw.Write(AppendPing(nil, 8))                    //tf:unchecked-ok test script
		rw.Flush()
		for j := 0; j < 3; j++ {
			line, err := rw.ReadString('\n')
			if err != nil {
				t.Errorf("reading ack %d: %v", j, err)
				return
			}
			lsn, err := ParseAck(strings.TrimSpace(line))
			if err != nil {
				t.Errorf("ack %d: %v", j, err)
				return
			}
			acks <- lsn
		}
	})
	defer sl.close()

	l := NewLink(sl.ln.Addr().String(), applyingCallbacks(t, &applied, &mu), Options{
		ReadTimeout: 2 * time.Second,
	})
	l.Start()
	defer l.Stop()

	want := []uint64{5, 8, 8}
	for i, w := range want {
		select {
		case got := <-acks:
			if got != w {
				t.Fatalf("ack %d = %d, want %d", i, got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for ack %d", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if applied != 8 {
		t.Fatalf("applied = %d, want 8", applied)
	}
}

// TestLinkCorruptFrameResume is the torn/corrupt-frame-over-the-wire
// test: the first session ships a chunk whose second frame is corrupted;
// the link must reject it, disconnect, and reconnect announcing only the
// cleanly applied prefix — after which the leader re-sends (with overlap)
// and the follower ends up having applied each record exactly once.
func TestLinkCorruptFrameResume(t *testing.T) {
	var mu sync.Mutex
	var applied uint64
	applyCount := 0
	base := applyingCallbacks(t, &applied, &mu)
	innerApply := base.Apply
	base.Apply = func(first uint64, count int, frames []byte) (uint64, error) {
		lsn, err := innerApply(first, count, frames)
		if err == nil {
			mu.Lock()
			applyCount += count
			mu.Unlock()
		}
		return lsn, err
	}

	handshakes := make(chan uint64, 4)
	done := make(chan struct{})
	sl := newScriptedLeader(t, func(i int, got uint64, rw *bufio.ReadWriter, nc net.Conn) {
		handshakes <- got
		switch i {
		case 0:
			if got != 0 {
				t.Errorf("session 0 handshake applied=%d, want 0", got)
			}
			fmt.Fprintf(rw, "+OK 6\n")
			// First chunk: LSNs 1..3 clean.
			b := testFrames(t, 1, 3)
			rw.Write(AppendFramesHeader(nil, 1, 3, len(b))) //tf:unchecked-ok test script
			rw.Write(b)                                     //tf:unchecked-ok test script
			// Second chunk: LSNs 4..6 with a bit flipped mid-frame.
			b = testFrames(t, 4, 3)
			b[len(b)/2] ^= 0x10
			rw.Write(AppendFramesHeader(nil, 4, 3, len(b))) //tf:unchecked-ok test script
			rw.Write(b)                                     //tf:unchecked-ok test script
			rw.Flush()
			// The link acks chunk 1, then drops the connection on chunk 2.
			rw.ReadString('\n') //tf:unchecked-ok test script
		case 1:
			if got != 3 {
				t.Errorf("session 1 handshake applied=%d, want 3", got)
			}
			fmt.Fprintf(rw, "+OK 6\n")
			// Re-send with overlap: LSNs 2..6 clean. The link must strip the
			// duplicate prefix (2..3) and apply only 4..6.
			b := testFrames(t, 2, 5)
			rw.Write(AppendFramesHeader(nil, 2, 5, len(b))) //tf:unchecked-ok test script
			rw.Write(b)                                     //tf:unchecked-ok test script
			rw.Flush()
			line, err := rw.ReadString('\n')
			if err != nil {
				t.Errorf("session 1 ack: %v", err)
				return
			}
			if lsn, err := ParseAck(strings.TrimSpace(line)); err != nil || lsn != 6 {
				t.Errorf("session 1 ack = %q, want RACK 6", strings.TrimSpace(line))
			}
			close(done)
		}
	})
	defer sl.close()

	l := NewLink(sl.ln.Addr().String(), base, Options{
		ReadTimeout: 2 * time.Second,
		BackoffMin:  10 * time.Millisecond,
	})
	l.Start()
	defer l.Stop()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for resumed session")
	}
	mu.Lock()
	defer mu.Unlock()
	if applied != 6 {
		t.Fatalf("applied = %d, want 6", applied)
	}
	if applyCount != 6 {
		t.Fatalf("apply callback saw %d records, want exactly 6 (no duplicates)", applyCount)
	}
}

// TestLinkReconnectBackoff checks that a link keeps retrying while the
// leader is down and recovers once it returns.
func TestLinkReconnectBackoff(t *testing.T) {
	// Grab an address, then close it so the first dials fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //tf:unchecked-ok freeing the port on purpose

	var mu sync.Mutex
	var applied uint64
	connected := make(chan struct{}, 1)
	failed := make(chan struct{}, 3) // the failed dials counted below; later ones are dropped
	cb := applyingCallbacks(t, &applied, &mu)
	cb.Status = func(st State) {
		ch := connected
		if !st.Connected {
			ch = failed
		}
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	l := NewLink(addr, cb, Options{
		DialTimeout: 500 * time.Millisecond,
		ReadTimeout: 2 * time.Second,
		BackoffMin:  10 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	l.Start()
	defer l.Stop()

	// Let it fail a few times, then bring the leader up on the same port.
	for i := 0; i < 3; i++ {
		select {
		case <-failed:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d failed dials reported, want 3 before the leader returns", i)
		}
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	//tf:goroutine test-late-leader
	go func() {
		defer wg.Done()
		for {
			nc, err := ln2.Accept()
			if err != nil {
				return
			}
			rw := bufio.NewReadWriter(bufio.NewReader(nc), bufio.NewWriter(nc))
			if _, err := rw.ReadString('\n'); err == nil {
				fmt.Fprintf(rw, "+OK 0\n")
				rw.Write(AppendPing(nil, 0)) //tf:unchecked-ok test script
				rw.Flush()
				rw.ReadString('\n') //tf:unchecked-ok test script
			}
			nc.Close() //tf:unchecked-ok test teardown
		}
	}()
	defer func() {
		ln2.Close() //tf:unchecked-ok test teardown
		wg.Wait()
	}()

	select {
	case <-connected:
	case <-time.After(10 * time.Second):
		t.Fatal("link never connected after leader came back")
	}
}

// TestLinkStopInterruptsBlockedRead checks Stop returns promptly even
// while the link is blocked reading from a silent leader.
func TestLinkStopInterruptsBlockedRead(t *testing.T) {
	sl := newScriptedLeader(t, func(i int, got uint64, rw *bufio.ReadWriter, nc net.Conn) {
		fmt.Fprintf(rw, "+OK 0\n")
		rw.Flush()
		// Say nothing more; hold the conn open until the peer goes away.
		rw.ReadString('\n') //tf:unchecked-ok test script
	})
	defer sl.close()

	var mu sync.Mutex
	var applied uint64
	cb := applyingCallbacks(t, &applied, &mu)
	connected := make(chan struct{}, 1)
	cb.Status = func(st State) {
		if st.Connected {
			select {
			case connected <- struct{}{}:
			default:
			}
		}
	}
	l := NewLink(sl.ln.Addr().String(), cb, Options{
		ReadTimeout: time.Minute, // force Stop to do the interrupting
	})
	l.Start()
	// The link reports Connected after the handshake, right before it
	// reads the first push, and the leader sends none: from here on the
	// link is in, or about to enter, that read. A goroutine blocked in a
	// read is not observable from outside, so the test waits for the last
	// step before it.
	select {
	case <-connected:
	case <-time.After(10 * time.Second):
		t.Fatal("link never connected")
	}
	doneCh := make(chan struct{})
	//tf:goroutine test-stopper
	go func() {
		l.Stop()
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not interrupt a blocked read")
	}
}
