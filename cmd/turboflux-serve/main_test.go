package main

import (
	"os"
	"path/filepath"
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
		err := run("127.0.0.1:0", dataDir, "none", path, "block", "", 16, 1, false, time.Second)
		if err == nil || !strings.HasPrefix(err.Error(), "loading graph: stream: line 2: ") {
			t.Errorf("-data-dir %q: err = %v, want loading graph: stream: line 2: …", dataDir, err)
		}
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
		err := run("127.0.0.1:0", dataDir, "none", path, "block", "", 16, 1, false, time.Second)
		if err == nil || !strings.HasPrefix(err.Error(), "loading graph: stream: line 2: stream: vertex id 4000000000 exceeds the maximum") {
			t.Errorf("-data-dir %q: err = %v, want loading graph: stream: line 2: …", dataDir, err)
		}
	}
}
