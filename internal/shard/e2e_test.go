package shard

// Multi-process shard e2e: real turboflux-serve shard processes behind an
// in-process coordinator. Proves byte-identical per-query subscriber
// transcripts against a single-process run of the same workload, and
// graceful degradation when one shard is SIGKILLed mid-stream.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"turboflux"
	"turboflux/internal/server"
)

var (
	serveBinOnce sync.Once
	serveBinPath string
	serveBinErr  error
)

// buildServeBin builds cmd/turboflux-serve once per test process.
func buildServeBin(t *testing.T) string {
	t.Helper()
	serveBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "turboflux-shard-bin")
		if err != nil {
			serveBinErr = err
			return
		}
		bin := filepath.Join(dir, "turboflux-serve")
		cmd := exec.Command("go", "build", "-o", bin, "turboflux/cmd/turboflux-serve")
		cmd.Dir = moduleRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			serveBinErr = fmt.Errorf("building turboflux-serve: %v\n%s", err, out)
			return
		}
		serveBinPath = bin
	})
	if serveBinErr != nil {
		t.Fatal(serveBinErr)
	}
	return serveBinPath
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// serveProc is one child turboflux-serve process (a shard).
type serveProc struct {
	cmd  *exec.Cmd
	addr string
}

// startServeProc launches turboflux-serve on a kernel-assigned port with
// fresh (empty) label dictionaries — the coordinator's LABEL sync is
// responsible for keeping them aligned — and waits for its banner.
func startServeProc(t *testing.T, extra ...string) *serveProc {
	t.Helper()
	bin := buildServeBin(t)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd}
	t.Cleanup(func() {
		cmd.Process.Kill() //tf:unchecked-ok test teardown
		cmd.Wait()         //tf:unchecked-ok test teardown
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "# serving on ") {
				addrCh <- strings.Fields(line)[3]
			}
		}
	}()
	select {
	case p.addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("turboflux-serve never printed its serving banner")
	}
	return p
}

// startCoordinatorOver starts an in-process coordinator over the given
// shard addresses and returns its client address.
func startCoordinatorOver(t *testing.T, shardAddrs []string, opt Options) string {
	t.Helper()
	opt.Shards = shardAddrs
	co, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- co.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := co.Shutdown(ctx); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("coordinator serve: %v", err)
		}
	})
	return co.Addr().String()
}

// rawSubscriber is a raw protocol connection capturing *EVENT lines
// exactly as written to the wire, so transcript comparison is
// byte-level.
type rawSubscriber struct {
	nc net.Conn
	br *bufio.Reader
}

func rawSubscribe(t *testing.T, addr string, queries []string) *rawSubscriber {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() }) //tf:unchecked-ok test cleanup
	br := bufio.NewReader(nc)
	for _, q := range queries {
		if _, err := fmt.Fprintf(nc, "SUBSCRIBE %s\n", q); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(10 * time.Second)) //tf:unchecked-ok test conn
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(line, "+OK") {
			t.Fatalf("SUBSCRIBE %s: %q", q, line)
		}
	}
	return &rawSubscriber{nc: nc, br: br}
}

// collectLines reads n push lines, grouped by the query name (second
// field). Cross-query interleaving on one connection is nondeterministic
// even on a single server, so per-query sequences are the comparison
// unit.
func (s *rawSubscriber) collectLines(t *testing.T, n int) map[string][]string {
	t.Helper()
	got := make(map[string][]string)
	for i := 0; i < n; i++ {
		s.nc.SetReadDeadline(time.Now().Add(30 * time.Second)) //tf:unchecked-ok test conn
		line, err := s.br.ReadString('\n')
		if err != nil {
			t.Fatalf("after %d of %d push lines: %v", i, n, err)
		}
		line = strings.TrimRight(line, "\r\n")
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "*") {
			t.Fatalf("unexpected push line %q", line)
		}
		got[fields[1]] = append(got[fields[1]], line)
	}
	return got
}

// e2eWorkload registers nq label-disjoint queries, declares vertices,
// subscribes to everything on one raw connection, applies updates and
// returns the captured per-query transcripts plus the acked match total.
func e2eWorkload(t *testing.T, addr string, nq, updates int) map[string][]string {
	t.Helper()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //tf:unchecked-ok test teardown
	queries := make([]string, nq)
	for i := range queries {
		queries[i] = fmt.Sprintf("q%d", i)
		if err := c.Register(queries[i], fmt.Sprintf("(a:P)-[:e%d]->(b:P)", i)); err != nil {
			t.Fatal(err)
		}
	}
	vlabel, err := c.Label("vertex", "P")
	if err != nil {
		t.Fatal(err)
	}
	for v := turboflux.VertexID(1); v <= 4; v++ {
		if _, err := c.DeclareVertex(v, vlabel); err != nil {
			t.Fatal(err)
		}
	}
	sub := rawSubscribe(t, addr, queries)

	total := 0
	for k := 0; k < updates; k++ {
		el := turboflux.Label(k % nq)
		from, to := turboflux.VertexID(1+(k%2)*2), turboflux.VertexID(2+(k%2)*2)
		var ack server.Ack
		if (k/nq)%2 == 0 {
			ack, err = c.Insert(from, el, to)
		} else {
			ack, err = c.Delete(from, el, to)
		}
		if err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		total += int(ack.Total)
	}
	return sub.collectLines(t, total)
}

// TestE2ETranscriptEquivalence is the tentpole acceptance test: a
// coordinator over 4 real shard processes produces byte-identical
// per-query subscriber transcripts to one single server process running
// the same workload.
func TestE2ETranscriptEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	const nq, updates = 8, 96

	single := startServeProc(t)
	want := e2eWorkload(t, single.addr, nq, updates)

	shardProcs := make([]string, 4)
	for i := range shardProcs {
		shardProcs[i] = startServeProc(t).addr
	}
	coAddr := startCoordinatorOver(t, shardProcs, Options{})
	got := e2eWorkload(t, coAddr, nq, updates)

	if len(got) != len(want) {
		t.Fatalf("cluster produced events for %d queries, single server %d", len(got), len(want))
	}
	for name, wantLines := range want {
		gotLines := got[name]
		if len(gotLines) != len(wantLines) {
			t.Fatalf("query %s: %d events, want %d", name, len(gotLines), len(wantLines))
		}
		for k := range wantLines {
			if gotLines[k] != wantLines[k] {
				t.Fatalf("query %s event %d:\n  cluster: %q\n  single:  %q", name, k, gotLines[k], wantLines[k])
			}
		}
	}
}

// TestE2EKillShardDegrades SIGKILLs one of four shard processes
// mid-stream: its queries error and their subscribers are evicted — each
// subscription riding the dead shard's upstream exactly once — while the
// other shards' queries keep streaming and updates keep acking.
func TestE2EKillShardDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	procs := make([]*serveProc, 4)
	addrs := make([]string, 4)
	for i := range procs {
		procs[i] = startServeProc(t)
		addrs[i] = procs[i].addr
	}
	coAddr := startCoordinatorOver(t, addrs, Options{
		HeartbeatInterval: 50 * time.Millisecond,
		RequestTimeout:    2 * time.Second,
	})
	c, err := server.Dial(coAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //tf:unchecked-ok test teardown

	// q0..q7 place round-robin on shards 0..3: q1 and q5 on shard 1.
	for i := 0; i < 8; i++ {
		if err := c.Register(fmt.Sprintf("q%d", i), fmt.Sprintf("(a:P)-[:e%d]->(b:P)", i)); err != nil {
			t.Fatal(err)
		}
	}
	vlabel, err := c.Label("vertex", "P")
	if err != nil {
		t.Fatal(err)
	}
	for v := turboflux.VertexID(1); v <= 2; v++ {
		if _, err := c.DeclareVertex(v, vlabel); err != nil {
			t.Fatal(err)
		}
	}
	// One subscriber connection watching two doomed queries, which share
	// its upstream to shard 1, and a survivor.
	sub, err := server.Dial(coAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close() //tf:unchecked-ok test teardown
	for _, q := range []string{"q1", "q5", "q2"} {
		if _, err := sub.Subscribe(q); err != nil {
			t.Fatal(err)
		}
	}

	if err := procs[1].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[1].cmd.Wait() //tf:unchecked-ok child was SIGKILLed

	// The next update acks from the survivors. The ack waits for every
	// fanner's result, and shard 1's control connection is closed with its
	// process, so the fanner has marked the shard down by then (if the
	// heartbeat has not already).
	if _, err := c.Insert(1, 0, 2); err != nil {
		t.Fatalf("update after shard kill failed: %v", err)
	}
	st, err := c.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if s1 := st.Find("shard", "1"); stat(t, s1.Bool, "alive") {
		t.Fatalf("shard 1 alive after an update acked without it: %s", s1)
	}

	c2, err := server.Dial(coAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close() //tf:unchecked-ok test teardown
	if _, err := c2.Subscribe("q1"); err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("subscribe to dead shard's query: err=%v, want down error", err)
	}

	// Survivor query still streams: drive a q2 match and wait for it and
	// for both eviction notices, counting every notice.
	ack, err := c.Insert(1, 2, 2) // edge label e2 → q2
	if err != nil {
		t.Fatal(err)
	}
	if ack.Counts["q2"] != 1 {
		t.Fatalf("q2 count = %v, want 1", ack.Counts)
	}
	evicted := make(map[string]int)
	sawQ2 := false
	for !sawQ2 || evicted["q1"] == 0 || evicted["q5"] == 0 {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatal("subscriber stream closed")
			}
			switch {
			case ev.Evicted:
				evicted[ev.Query]++
			case ev.Query == "q2" && ev.Seq == ack.Seq:
				sawQ2 = true
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("after 10s: q2's post-kill match seen=%t, evictions %v; want the match and q1, q5 evicted", sawQ2, evicted)
		}
	}
	// A second notice would follow the first on the same connection;
	// a PING round trip orders everything written before it.
	if err := sub.Ping(); err != nil {
		t.Fatal(err)
	}
	for drained := false; !drained; {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				t.Fatal("subscriber stream closed")
			}
			if ev.Evicted {
				evicted[ev.Query]++
			}
		default:
			drained = true
		}
	}
	if evicted["q1"] != 1 || evicted["q5"] != 1 || evicted["q2"] != 0 {
		t.Fatalf("eviction notices %v, want exactly one each for q1 and q5", evicted)
	}
}
