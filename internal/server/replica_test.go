package server

// In-process replication tests: transcript equivalence between leader and
// follower, catch-up across follower restarts, corrupt-frame recovery
// over a real TCP path, promotion, and the follower's read-only gate.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"turboflux"
	"turboflux/internal/replica"
)

const replPattern = "(a:P)-[:knows]->(b:P)"

// replDicts builds one server's pre-interned dictionaries ("P"=0,
// "knows"=0). Each server needs its own instances, interned in the same
// order, so numeric labels on the wire mean the same thing everywhere.
func replDicts() (vd, ed *turboflux.Dict) {
	vd = turboflux.NewDict()
	vd.Intern("P")
	ed = turboflux.NewDict()
	ed.Intern("knows")
	return vd, ed
}

func leaderOpts(dir string) Options {
	vd, ed := replDicts()
	return Options{
		DataDir:       dir,
		Fsync:         "interval",
		VertexLabels:  vd,
		EdgeLabels:    ed,
		BootstrapFrom: strings.NewReader("v 1 0\nv 2 0\nv 3 0\nv 4 0\n"),
	}
}

// replBootstrapLen is the journaled bootstrap length of leaderOpts; the
// first client update is acked with sequence number replBootstrapLen+1.
const replBootstrapLen = 4

func followerOpts(dir, leader string) Options {
	vd, ed := replDicts()
	return Options{
		DataDir:      dir,
		Fsync:        "interval",
		VertexLabels: vd,
		EdgeLabels:   ed,
		Follow:       leader,
		ReplOptions: replica.Options{
			DialTimeout: time.Second,
			BackoffMin:  20 * time.Millisecond,
			BackoffMax:  200 * time.Millisecond,
		},
	}
}

// replUpdate is the k-th update of the test workload: alternating
// insert/delete over two vertex pairs, so every update produces exactly
// one match event.
func replUpdate(k int) turboflux.Update {
	pairs := [...][2]turboflux.VertexID{{1, 2}, {3, 4}}
	p := pairs[(k/2)%len(pairs)]
	if k%2 == 0 {
		return turboflux.Insert(p[0], 0, p[1])
	}
	return turboflux.Delete(p[0], 0, p[1])
}

// startReplServer runs a server on a loopback port and tears it down with
// the test. It returns the server, its dial address and an explicit,
// idempotent stop, so tests can shut one server down mid-test (follower
// restart, dead leader).
func startReplServer(t testing.TB, opt Options) (*Front, string, func()) {
	t.Helper()
	s, _, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-serveDone; err != nil {
				t.Errorf("serve: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return s, s.Addr().String(), stop
}

// rawSubscribe opens a raw protocol connection and subscribes, so the
// test can capture the *EVENT lines exactly as written to the wire.
func rawSubscribe(t *testing.T, addr, query string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() }) //tf:unchecked-ok test cleanup
	br := bufio.NewReader(nc)
	if _, err := fmt.Fprintf(nc, "SUBSCRIBE %s\n", query); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //tf:unchecked-ok test conn
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "+OK") {
		t.Fatalf("SUBSCRIBE reply %q", line)
	}
	return nc, br
}

// collectEvents reads exactly n *EVENT lines (trailing newline stripped).
func collectEvents(t *testing.T, nc net.Conn, br *bufio.Reader, n int) []string {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //tf:unchecked-ok test conn
	out := make([]string, 0, n)
	for len(out) < n {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading events (%d/%d): %v", len(out), n, err)
		}
		line = strings.TrimRight(line, "\n")
		if !strings.HasPrefix(line, "*EVENT ") {
			t.Fatalf("unexpected push %q", line)
		}
		out = append(out, line)
	}
	return out
}

// stat reads key through get, a StatsLine getter, failing the test when
// the line lacks the key or carries it malformed.
func stat[T any](t *testing.T, get func(string) (T, error), key string) T {
	t.Helper()
	v, err := get(key)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// waitForLSN polls STATS until the server's durable LSN reaches want.
func waitForLSN(t *testing.T, c *Client, want uint64) {
	t.Helper()
	// A poll: a server's WAL position reaches a client only through STATS.
	waitUntil(t, 10*time.Second, fmt.Sprintf("the server to reach LSN %d", want), func() bool {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return stat(t, st.Line("wal").Uint, "lsn") >= want
	})
}

// TestFollowerMirrorsLeaderTranscript is the core replication contract:
// a follower subscribed to the same query emits a byte-identical event
// transcript, and both sides' STATS agree on positions and lag.
func TestFollowerMirrorsLeaderTranscript(t *testing.T) {
	const updates = 20
	_, leaderAddr, _ := startReplServer(t, leaderOpts(t.TempDir()))
	_, followerAddr, _ := startReplServer(t, followerOpts(t.TempDir(), leaderAddr))

	cl := dialTest(t, leaderAddr)
	cf := dialTest(t, followerAddr)
	if err := cl.Register("q", replPattern); err != nil {
		t.Fatal(err)
	}
	if err := cf.Register("q", replPattern); err != nil {
		t.Fatal(err)
	}
	lnc, lbr := rawSubscribe(t, leaderAddr, "q")
	fnc, fbr := rawSubscribe(t, followerAddr, "q")

	var lastSeq uint64
	for k := 0; k < updates; k++ {
		ack, err := cl.Apply(replUpdate(k))
		if err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		if want := uint64(replBootstrapLen + k + 1); ack.Seq != want {
			t.Fatalf("update %d acked seq %d, want %d (seq must equal LSN)", k, ack.Seq, want)
		}
		lastSeq = ack.Seq
	}
	waitForLSN(t, cf, lastSeq)

	evL := collectEvents(t, lnc, lbr, updates)
	evF := collectEvents(t, fnc, fbr, updates)
	for i := range evL {
		if evL[i] != evF[i] {
			t.Fatalf("transcript diverges at event %d:\n  leader   %q\n  follower %q", i, evL[i], evF[i])
		}
	}

	// Leader STATS: role, durable position, per-follower lag. The leader
	// learns the follower's position from an asynchronous acknowledgement,
	// after the follower's own WAL has it: wait for the value asserted.
	// It is a poll: that position reaches a client only through STATS.
	var st StatsPayload
	var fl StatsLine
	waitUntil(t, 10*time.Second, fmt.Sprintf("the leader to see the follower at LSN %d", lastSeq), func() bool {
		var err error
		if st, err = cl.Stats(); err != nil {
			t.Fatal(err)
		}
		fl = st.Line("follower")
		return stat(t, fl.Uint, "applied_lsn") == lastSeq
	})
	if r := st.Line("replica"); stat(t, r.Str, "role") != "leader" || stat(t, r.Uint, "followers") != 1 {
		t.Fatalf("leader replica line = %s", r)
	}
	if lsn := stat(t, st.Line("wal").Uint, "lsn"); lsn != lastSeq {
		t.Fatalf("leader wal lsn = %d, want %d", lsn, lastSeq)
	}
	stat(t, st.Line("wal").Uint, "snap_lsn")
	if stat(t, fl.Uint, "applied_lsn") != lastSeq || stat(t, fl.Uint, "lag") != 0 {
		t.Fatalf("follower line %s: want applied_lsn=%d lag=0", fl, lastSeq)
	}

	// Follower STATS: link state.
	st, err := cf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rl := st.Line("replica")
	if stat(t, rl.Str, "role") != "follower" || !stat(t, rl.Bool, "connected") || stat(t, rl.Uint, "applied_lsn") != lastSeq {
		t.Fatalf("follower replica line %s: want role=follower connected=true applied_lsn=%d", rl, lastSeq)
	}

	// The follower is read-only.
	if _, err := cf.Insert(1, 0, 2); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower accepted a write: err=%v", err)
	}
	if _, err := cf.Batch([]turboflux.Update{turboflux.Insert(1, 0, 2)}); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower accepted a batch: err=%v", err)
	}
}

// TestFollowerRefusesUnheldLabels: a follower interns no label name of its
// own. The leader's store holds "P" and "knows" in a snapshot, which seeds
// a follower started with empty dictionaries: REGISTER over those names is
// accepted there, while LABEL and REGISTER of a name it does not hold are
// refused and change nothing STATS reports. The leader still mints names.
func TestFollowerRefusesUnheldLabels(t *testing.T) {
	leaderDir := t.TempDir()
	m, err := turboflux.OpenDurableMulti(leaderDir, turboflux.DurableMultiOptions{Fsync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	p, knows := m.VertexLabels().Intern("P"), m.EdgeLabels().Intern("knows")
	for v := turboflux.VertexID(1); v <= 4; v++ {
		if _, err := m.Apply(turboflux.DeclareVertex(v, p)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Apply(turboflux.Insert(1, knows, 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	_, leaderAddr, _ := startReplServer(t, Options{DataDir: leaderDir, Fsync: "interval"})
	fopt := followerOpts(t.TempDir(), leaderAddr)
	fopt.VertexLabels, fopt.EdgeLabels = nil, nil
	_, followerAddr, _ := startReplServer(t, fopt)
	cf := dialTest(t, followerAddr)
	waitForLSN(t, cf, 5)

	if l, err := cf.Label("edge", "knows"); err != nil || l != knows {
		t.Fatalf("follower LABEL edge knows = %d, %v; want the seeded %d", l, err, knows)
	}
	if err := cf.Register("q", replPattern); err != nil {
		t.Fatalf("follower REGISTER over seeded names: %v", err)
	}
	before, err := cf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, refused := range []func() error{
		func() error { _, err := cf.Label("edge", "likes"); return err },
		func() error { _, err := cf.Label("vertex", "Q"); return err },
		func() error { return cf.Register("q2", "(a:P)-[:likes]->(b:P)") },
		func() error { return cf.Register("q3", "(a:Q)-[:knows]->(b:P)") },
	} {
		if err := refused(); err == nil || !strings.Contains(err.Error(), "read-only follower holds no") {
			t.Fatalf("follower took a label name it does not hold: err=%v", err)
		}
	}
	after, err := cf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"server", "mqo", "query"} {
		if b, a := before.Line(kind).String(), after.Line(kind).String(); a != b {
			t.Fatalf("STATS %s line moved on refused names:\n  before: %s\n  after:  %s", kind, b, a)
		}
	}
	if n := len(after.Lines("query")); n != 1 {
		t.Fatalf("follower reports %d queries, want 1", n)
	}
	if l, err := dialTest(t, leaderAddr).Label("edge", "likes"); err != nil || l != knows+1 {
		t.Fatalf("leader LABEL edge likes = %d, %v; want %d", l, err, knows+1)
	}
}

// TestFollowerRestartCatchup stops a follower mid-stream, keeps writing
// on the leader, restarts the follower over the same data directory and
// checks it catches up from its own WAL position with a byte-identical
// transcript for the missed suffix.
func TestFollowerRestartCatchup(t *testing.T) {
	const phase = 10
	_, leaderAddr, _ := startReplServer(t, leaderOpts(t.TempDir()))
	followerDir := t.TempDir()
	_, followerAddr, stopFollower := startReplServer(t, followerOpts(followerDir, leaderAddr))

	cl := dialTest(t, leaderAddr)
	cf := dialTest(t, followerAddr)
	if err := cl.Register("q", replPattern); err != nil {
		t.Fatal(err)
	}
	if err := cf.Register("q", replPattern); err != nil {
		t.Fatal(err)
	}
	lnc, lbr := rawSubscribe(t, leaderAddr, "q")

	var lastSeq uint64
	for k := 0; k < phase; k++ {
		ack, err := cl.Apply(replUpdate(k))
		if err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		lastSeq = ack.Seq
	}
	waitForLSN(t, cf, lastSeq)
	cf.Close() //tf:unchecked-ok test teardown
	stopFollower()

	for k := phase; k < 2*phase; k++ {
		ack, err := cl.Apply(replUpdate(k))
		if err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		lastSeq = ack.Seq
	}

	// Restart over the same directory: catch-up starts from the LSN the
	// first run journaled, not from zero. The link is routed through a
	// gated proxy that relays only once the query is re-registered and
	// subscribed, so every missed update deterministically emits its
	// event after the restart.
	gate := make(chan struct{})
	proxyAddr := startGateProxy(t, leaderAddr, gate)
	_, followerAddr2, _ := startReplServer(t, followerOpts(followerDir, proxyAddr))
	cf2 := dialTest(t, followerAddr2)
	if err := cf2.Register("q", replPattern); err != nil {
		t.Fatal(err)
	}
	fnc, fbr := rawSubscribe(t, followerAddr2, "q")
	close(gate)
	waitForLSN(t, cf2, lastSeq)

	evL := collectEvents(t, lnc, lbr, 2*phase)
	evF := collectEvents(t, fnc, fbr, phase)
	for i := range evF {
		if evF[i] != evL[phase+i] {
			t.Fatalf("restart transcript diverges at event %d:\n  leader   %q\n  follower %q",
				i, evL[phase+i], evF[i])
		}
	}
}

// startGateProxy relays TCP connections to leaderAddr, but holds every
// accepted connection until gate closes — letting a test pin down when a
// follower's replication session may begin.
func startGateProxy(t *testing.T, leaderAddr string, gate <-chan struct{}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() }) //tf:unchecked-ok test cleanup
	go func() {
		for {
			cc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(cc net.Conn) {
				defer cc.Close()
				<-gate
				lc, err := net.Dial("tcp", leaderAddr)
				if err != nil {
					return
				}
				defer lc.Close()
				go func() {
					io.Copy(lc, cc) //tf:unchecked-ok proxy teardown
					lc.Close()
					cc.Close()
				}()
				io.Copy(cc, lc) //tf:unchecked-ok proxy teardown
			}(cc)
		}
	}()
	return ln.Addr().String()
}

// flipProxy relays follower→leader traffic untouched and flips one bit
// of the leader→follower stream during the first session, simulating a
// torn/corrupt frame on the wire. Later sessions pass through clean.
type flipProxy struct {
	ln       net.Listener
	leader   string
	flipAt   int
	sessions atomic.Int32
}

func startFlipProxy(t *testing.T, leaderAddr string, flipAt int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flipProxy{ln: ln, leader: leaderAddr, flipAt: flipAt}
	t.Cleanup(func() { ln.Close() }) //tf:unchecked-ok test cleanup
	go p.acceptLoop()
	return ln.Addr().String()
}

func (p *flipProxy) acceptLoop() {
	for {
		cc, err := p.ln.Accept()
		if err != nil {
			return
		}
		corrupt := p.sessions.Add(1) == 1
		go p.relay(cc, corrupt)
	}
}

func (p *flipProxy) relay(cc net.Conn, corrupt bool) {
	defer cc.Close()
	lc, err := net.Dial("tcp", p.leader)
	if err != nil {
		return
	}
	defer lc.Close()
	go func() {
		io.Copy(lc, cc) //tf:unchecked-ok proxy teardown
		lc.Close()
		cc.Close()
	}()
	buf := make([]byte, 4096)
	written := 0
	for {
		n, rerr := lc.Read(buf)
		if n > 0 {
			if corrupt && written <= p.flipAt && p.flipAt < written+n {
				buf[p.flipAt-written] ^= 0x01
			}
			written += n
			if _, werr := cc.Write(buf[:n]); werr != nil {
				return
			}
		}
		if rerr != nil {
			return
		}
	}
}

// TestCorruptFrameOverWireResume routes replication through a proxy that
// flips one bit mid-catch-up: the follower must detect the corruption
// (CRC or framing), drop the session, reconnect and resume from its last
// applied LSN — converging on exactly the leader's LSN, so nothing was
// applied twice or skipped.
func TestCorruptFrameOverWireResume(t *testing.T) {
	const updates = 50
	_, leaderAddr, _ := startReplServer(t, leaderOpts(t.TempDir()))
	cl := dialTest(t, leaderAddr)
	if err := cl.Register("q", replPattern); err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	for k := 0; k < updates; k++ {
		ack, err := cl.Apply(replUpdate(k))
		if err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		lastSeq = ack.Seq
	}

	// Byte 120 lands inside the first catch-up chunk's frame body (the
	// handshake reply and chunk header are well under 40 bytes, the body
	// is several hundred).
	proxyAddr := startFlipProxy(t, leaderAddr, 120)
	_, followerAddr, _ := startReplServer(t, followerOpts(t.TempDir(), proxyAddr))
	cf := dialTest(t, followerAddr)
	waitForLSN(t, cf, lastSeq)

	// The corruption must have cost the first session.
	st, err := cf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if lsn := stat(t, st.Line("wal").Uint, "lsn"); lsn != lastSeq {
		t.Fatalf("follower lsn = %d, want exactly %d (duplicates would overshoot)", lsn, lastSeq)
	}

	// Live stream still works after the resume.
	ack, err := cl.Apply(replUpdate(updates))
	if err != nil {
		t.Fatal(err)
	}
	waitForLSN(t, cf, ack.Seq)
}

// TestPromoteFollower kills the leader, promotes the follower and checks
// it seals its log, accepts writes and serves subscriptions.
func TestPromoteFollower(t *testing.T) {
	const updates = 8
	_, leaderAddr, stopLeader := startReplServer(t, leaderOpts(t.TempDir()))
	_, followerAddr, _ := startReplServer(t, followerOpts(t.TempDir(), leaderAddr))

	cl := dialTest(t, leaderAddr)
	cf := dialTest(t, followerAddr)
	if err := cl.Register("q", replPattern); err != nil {
		t.Fatal(err)
	}
	if err := cf.Register("q", replPattern); err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	for k := 0; k < updates; k++ {
		ack, err := cl.Apply(replUpdate(k))
		if err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		lastSeq = ack.Seq
	}
	waitForLSN(t, cf, lastSeq)
	cl.Close() //tf:unchecked-ok test teardown
	stopLeader()

	if err := cf.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := cf.Promote(); err == nil || !strings.Contains(err.Error(), "already leader") {
		t.Fatalf("second promote: err=%v", err)
	}
	st, err := cf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if role, err := st.Role(); err != nil || role != "leader" {
		t.Fatalf("promoted role = %q, %v; want leader", role, err)
	}

	// Writes are accepted and numbered after the replicated history.
	if _, err := cf.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	ack, err := cf.Apply(replUpdate(updates))
	if err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	if ack.Seq != lastSeq+1 {
		t.Fatalf("post-promote seq = %d, want %d", ack.Seq, lastSeq+1)
	}
	select {
	case ev := <-cf.Events():
		if ev.Seq != ack.Seq {
			t.Fatalf("post-promote event seq = %d, want %d", ev.Seq, ack.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event after promotion")
	}
}

// TestReplicateRequiresDurableStore rejects REPLICATE on a memory-only
// server and on connections that already hold subscriptions.
func TestReplicateRequiresDurableStore(t *testing.T) {
	_, addr := startServer(t, Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close() //tf:unchecked-ok test cleanup
	br := bufio.NewReader(nc)
	if _, err := io.WriteString(nc, "REPLICATE 0\n"); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //tf:unchecked-ok test conn
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "-ERR") || !strings.Contains(line, "durable") {
		t.Fatalf("REPLICATE on memory server: %q", line)
	}
}

func TestReplicateRejectedWithSubscriptions(t *testing.T) {
	_, addr, _ := startReplServer(t, leaderOpts(t.TempDir()))
	c := dialTest(t, addr)
	if err := c.Register("q", replPattern); err != nil {
		t.Fatal(err)
	}
	nc, br := rawSubscribe(t, addr, "q")
	if _, err := io.WriteString(nc, "REPLICATE 0\n"); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //tf:unchecked-ok test conn
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "-ERR") || !strings.Contains(line, "subscriptions") {
		t.Fatalf("REPLICATE on subscribed conn: %q", line)
	}
}

// TestFollowerShutdownMidStreamStress shuts a follower down while the
// leader keeps writing and the follower keeps streaming events to a
// subscriber. The follower's Stop ends its replication link before the
// mailbox, while the actor still runs to serve the link's last callbacks:
// Shutdown must return nil, leave no goroutine behind and leave a journal
// that reopens clean, at or behind the leader.
func TestFollowerShutdownMidStreamStress(t *testing.T) {
	_, leaderAddr, _ := startReplServer(t, leaderOpts(t.TempDir()))
	baseline := runtime.NumGoroutine()

	dir := t.TempDir()
	f, _, err := New(followerOpts(dir, leaderAddr))
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
	if err := cf.Register("q", replPattern); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range cf.Events() {
		}
	}()

	cl, err := Dial(leaderAddr)
	if err != nil {
		t.Fatal(err)
	}
	stop, wrote := make(chan struct{}), make(chan error, 1)
	go func() {
		for k := 0; ; k++ {
			select {
			case <-stop:
				wrote <- nil
				return
			default:
			}
			if _, err := cl.Apply(replUpdate(k)); err != nil {
				wrote <- fmt.Errorf("update %d: %w", k, err)
				return
			}
		}
	}()

	waitUntil(t, 10*time.Second, "the follower to apply LSN 101", func() bool {
		st, err := cf.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return stat(t, st.Line("replica").Uint, "applied_lsn") > 100
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatalf("follower shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("follower serve: %v", err)
	}
	close(stop)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	leaderLSN := stat(t, st.Line("wal").Uint, "lsn")
	cl.Close() //tf:unchecked-ok test teardown
	cf.Close() //tf:unchecked-ok test teardown
	<-drained

	// Goroutine counts settle asynchronously (the leader's feed and
	// connection goroutines end after their peers close), so retry.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline=%d now=%d\n%.4000s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}

	d, err := turboflux.OpenDurableMulti(dir, turboflux.DurableMultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //tf:unchecked-ok test cleanup
	if rec := d.Recovery(); rec.TruncatedBytes != 0 {
		t.Fatalf("follower journal reopened with %d torn bytes", rec.TruncatedBytes)
	}
	if lsn := d.LSN(); lsn <= 100 || lsn > leaderLSN {
		t.Fatalf("follower journal at LSN %d, want past 100 and at most the leader's %d", lsn, leaderLSN)
	}
}
