package main

import (
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// TestRunReportsMalformedGraph: a -graph file that does not decode fails
// run() with the line it stopped at, under the "loading graph:" prefix,
// in memory and in durable mode.
func TestRunReportsMalformedGraph(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g0.txt")
	if err := os.WriteFile(path, []byte("i 1 0 2\ni 1 x 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dataDir := range []string{"", t.TempDir()} {
		err := run("", "127.0.0.1:0", dataDir, "none", path, "block", "", 16, 1, false, time.Second)
		if err == nil || !strings.HasPrefix(err.Error(), "loading graph: stream: line 2: ") {
			t.Errorf("-data-dir %q: err = %v, want loading graph: stream: line 2: …", dataDir, err)
		}
	}
}

// TestRunCPUProfileOnError: -cpuprofile's profile is written even when run
// fails, here on a malformed graph, and it is gzip-framed as pprof writes
// it.
func TestRunCPUProfileOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g0.txt")
	if err := os.WriteFile(path, []byte("i 1 x 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prof := filepath.Join(dir, "cpu.pprof")
	if err := run(prof, "127.0.0.1:0", "", "none", path, "block", "", 16, 1, false, time.Second); err == nil {
		t.Fatal("run() on a malformed graph returned nil")
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile of %d bytes does not start with the gzip magic", len(b))
	}
}

// TestRunReportsVertexIDPastBound: a -graph file naming a vertex ID past
// graph.MaxVertexID fails run() with its line under the "loading graph:"
// prefix, in memory and in durable mode, instead of sizing the vertex
// table by the ID.
func TestRunReportsVertexIDPastBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g0.txt")
	if err := os.WriteFile(path, []byte("i 1 0 2\ni 4000000000 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dataDir := range []string{"", t.TempDir()} {
		err := run("", "127.0.0.1:0", dataDir, "none", path, "block", "", 16, 1, false, time.Second)
		if err == nil || !strings.HasPrefix(err.Error(), "loading graph: stream: line 2: stream: vertex id 4000000000 exceeds the maximum") {
			t.Errorf("-data-dir %q: err = %v, want loading graph: stream: line 2: …", dataDir, err)
		}
	}
}

// TestRunSetsGCTargetAfterLoad: once the server is built, run() sets the
// collector's target to gcPercent, unless GOGC is set in the environment,
// which then wins. run() is stopped at Listen by an address already taken.
func TestRunSetsGCTargetAfterLoad(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //tf:unchecked-ok test listener
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	for _, tc := range []struct {
		env  string // "" = unset
		want int
	}{{"", gcPercent}, {"60", 100}} {
		t.Setenv("GOGC", tc.env)
		if tc.env == "" {
			os.Unsetenv("GOGC") //tf:unchecked-ok t.Setenv restores it
		}
		debug.SetGCPercent(100)
		if err := run("", ln.Addr().String(), "", "none", "", "block", "", 16, 1, false, time.Second); err == nil {
			t.Fatal("run() on a taken address returned nil")
		}
		if got := debug.SetGCPercent(100); got != tc.want {
			t.Errorf("GOGC %q: run() left the GC percent at %d, want %d", tc.env, got, tc.want)
		}
	}
}
