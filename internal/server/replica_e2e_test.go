package server

// Multi-process replication e2e: real turboflux-serve leader and follower
// processes over TCP, a SIGKILLed leader mid-batch, and promotion of the
// follower with no confirmed-replicated update lost.

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"turboflux"
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
		dir, err := os.MkdirTemp("", "turboflux-serve-bin")
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

// serveProc is one child turboflux-serve process.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
}

// startServeProc launches turboflux-serve with the given extra flags on a
// kernel-assigned port and waits for its "# serving on" banner.
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
				fields := strings.Fields(line)
				addrCh <- fields[3]
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

// e2eUpdate is the k-th edge update of the process-e2e workload (numeric
// labels: vertex label 0, edge label 0), one match event per update.
func e2eUpdate(k int) turboflux.Update {
	pairs := [...][2]turboflux.VertexID{{1, 2}, {3, 4}}
	p := pairs[(k/2)%len(pairs)]
	if k%2 == 0 {
		return turboflux.Insert(p[0], 0, p[1])
	}
	return turboflux.Delete(p[0], 0, p[1])
}

// TestE2EKillLeaderPromoteFollower drives a leader and follower as real
// processes: a writer streams batches into the leader while a subscriber
// listens on the follower; once a prefix is confirmed replicated
// (follower lag 0 over it) the leader is SIGKILLed mid-stream, the
// follower is promoted, and the test checks the confirmed prefix
// survived, writes resume with contiguous LSNs, and the follower's
// subscriber keeps receiving — with strictly increasing, never duplicated
// sequence numbers across the promotion.
func TestE2EKillLeaderPromoteFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	leaderDir := t.TempDir()
	followerDir := t.TempDir()

	// Bootstrap graph: four vertices with label 0, journaled on the fresh
	// leader and replicated to the follower.
	graphPath := filepath.Join(t.TempDir(), "boot.txt")
	boot := "v 1 0\nv 2 0\nv 3 0\nv 4 0\n"
	if err := os.WriteFile(graphPath, []byte(boot), 0o644); err != nil {
		t.Fatal(err)
	}
	const bootLen = 4
	const pattern = "(a:0)-[:0]->(b:0)"

	leader := startServeProc(t, "-numeric-labels", "-data-dir", leaderDir, "-graph", graphPath)
	follower := startServeProc(t, "-numeric-labels", "-data-dir", followerDir, "-follow", leader.addr)

	cl, err := Dial(leader.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //tf:unchecked-ok test teardown
	if err := cl.Register("q", pattern); err != nil {
		t.Fatal(err)
	}

	cfCtl := dialTest(t, follower.addr)
	if err := cfCtl.Register("q", pattern); err != nil {
		t.Fatal(err)
	}
	cfSub := dialTest(t, follower.addr)
	if _, err := cfSub.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	var (
		seqMu sync.Mutex
		seqs  []uint64
	)
	received := make(chan struct{}, 1) // a ping after each event the reader records
	go func() {
		for ev := range cfSub.Events() {
			if ev.Evicted {
				return
			}
			seqMu.Lock()
			seqs = append(seqs, ev.Seq)
			seqMu.Unlock()
			select {
			case received <- struct{}{}:
			default:
			}
		}
	}()

	// Writer: stream batches into the leader until it dies, sending the
	// acked LSN once it covers a substantial prefix.
	const batchSize = 10
	prefix := make(chan uint64, 1)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		k := 0
		for sent := false; ; {
			ups := make([]turboflux.Update, batchSize)
			for i := range ups {
				ups[i] = e2eUpdate(k)
				k++
			}
			ack, err := cl.Batch(ups)
			if err != nil {
				return // leader is gone
			}
			if acked := ack.FirstSeq + uint64(ack.Applied) - 1; !sent && acked >= bootLen+200 {
				prefix <- acked
				sent = true
			}
		}
	}()

	// Wait for the acked prefix, then for the follower to confirm it (lag
	// 0 over the prefix).
	var confirmed uint64
	select {
	case confirmed = <-prefix:
	case <-writerDone:
		t.Fatal("the writer stopped before 200 acked updates")
	case <-time.After(30 * time.Second):
		t.Fatal("writer never reached 200 acked updates")
	}
	waitForLSN(t, cfCtl, confirmed)

	// SIGKILL the leader mid-stream: the writer is still batching.
	if err := leader.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	leader.cmd.Wait() //tf:unchecked-ok child was SIGKILLed
	<-writerDone

	// Promote the follower and check the confirmed prefix survived.
	if err := cfCtl.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	st, err := cfCtl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	lsn := stat(t, st.Line("wal").Uint, "lsn")
	if lsn < confirmed {
		t.Fatalf("promoted follower lsn = %d, want >= confirmed %d", lsn, confirmed)
	}
	if role, err := st.Role(); err != nil || role != "leader" {
		t.Fatalf("promoted role = %q, %v; want leader", role, err)
	}

	// Writes resume with contiguous LSNs and the subscriber keeps
	// receiving events.
	ack, err := cfCtl.Apply(turboflux.Insert(1, 0, 2))
	if err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	if ack.Seq != lsn+1 {
		t.Fatalf("post-promote seq = %d, want %d", ack.Seq, lsn+1)
	}
	sawResume := func() bool {
		seqMu.Lock()
		defer seqMu.Unlock()
		n := len(seqs)
		return n > 0 && seqs[n-1] >= ack.Seq
	}
	for wait := time.After(10 * time.Second); !sawResume(); {
		select {
		case <-received:
		case <-wait:
			t.Fatalf("subscriber never saw the post-promote event (seq %d)", ack.Seq)
		}
	}

	// No duplicate and no reordered delivery across the promotion.
	seqMu.Lock()
	defer seqMu.Unlock()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("event seqs not strictly increasing at %d: %d then %d", i, seqs[i-1], seqs[i])
		}
	}
}

// TestE2EFollowerServesReads checks the fan-out tier shape with real
// processes: one leader, two followers, all serving the same query; both
// followers converge on the leader's LSN and answer STATS/read traffic
// locally while rejecting writes. It runs with numeric labels, which every
// process holds from the start, and with named ones, where the followers
// refuse the name the leader minted after they started.
func TestE2EFollowerServesReads(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	for _, numeric := range []bool{true, false} {
		t.Run(fmt.Sprintf("numeric=%t", numeric), func(t *testing.T) { e2eFollowerServesReads(t, numeric) })
	}
}

func e2eFollowerServesReads(t *testing.T, numeric bool) {
	const updates = 100
	graphPath := filepath.Join(t.TempDir(), "boot.txt")
	if err := os.WriteFile(graphPath, []byte("v 1 0\nv 2 0\nv 3 0\nv 4 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var labels []string
	if numeric {
		labels = []string{"-numeric-labels"}
	}
	leader := startServeProc(t, append(labels, "-data-dir", leaderDirOf(t), "-graph", graphPath)...)
	f1 := startServeProc(t, append(labels, "-data-dir", leaderDirOf(t), "-follow", leader.addr)...)
	f2 := startServeProc(t, append(labels, "-data-dir", leaderDirOf(t), "-follow", leader.addr)...)

	cl := dialTest(t, leader.addr)
	if err := cl.Register("q", "(a:0)-[:0]->(b:0)"); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for k := 0; k < updates; k++ {
		ack, err := cl.Apply(e2eUpdate(k))
		if err != nil {
			t.Fatalf("update %d: %v", k, err)
		}
		last = ack.Seq
	}
	for i, f := range []*serveProc{f1, f2} {
		cf := dialTest(t, f.addr)
		waitForLSN(t, cf, last)
		if _, err := cf.Insert(1, 0, 2); err == nil || !strings.Contains(err.Error(), "read-only") {
			t.Fatalf("follower %d accepted a write: err=%v", i, err)
		}
		// The leader's REGISTER minted the edge label "0" when it was not
		// numeric; a follower does not learn it, and must not mint its own.
		l, err := cf.Label("edge", "0")
		if numeric && (err != nil || l != 0) {
			t.Fatalf("follower %d: LABEL edge 0 = %d, %v; want 0", i, l, err)
		}
		if !numeric && (err == nil || !strings.Contains(err.Error(), "holds no edge label")) {
			t.Fatalf("follower %d: LABEL edge 0 of a name it does not hold = %d, %v; want refused", i, l, err)
		}
	}

	// The leader sees both followers caught up.
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n := stat(t, st.Line("replica").Uint, "followers"); n != 2 {
		t.Fatalf("leader reports %d followers, want 2", n)
	}
}

func leaderDirOf(t *testing.T) string { return t.TempDir() }
