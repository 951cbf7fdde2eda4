package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"turboflux/internal/stats"
)

func TestCSVSink(t *testing.T) {
	dir := t.TempDir()
	c := NewCSVSink(dir)
	var s stats.Summary
	s.AddQuery(0, 3*time.Millisecond, 1024, 7)
	s.AddTimeout()
	c.AddSummaries("fig6", "tree-3", map[Kind]*stats.Summary{TurboFlux: &s}, []Kind{TurboFlux, SJTree})
	c.AddSummaries("fig6", "tree-6", map[Kind]*stats.Summary{TurboFlux: &s}, []Kind{TurboFlux})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig6.csv"))
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.HasPrefix(out, "label,engine,mean_cost_ns") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "tree-3,TurboFlux,3000000,1024,1,1,7") {
		t.Fatalf("missing data row: %q", out)
	}
	if strings.Count(out, "\n") != 3 { // header + 2 rows
		t.Fatalf("row count wrong: %q", out)
	}
}

func TestCSVSinkNil(t *testing.T) {
	var c *CSVSink
	c.Add("x", "a")
	c.AddHeader("x", "a")
	c.AddSummaries("x", "l", nil, nil)
	if err := c.Flush(); err != nil {
		t.Fatal("nil sink must be a silent no-op")
	}
	// Empty sink flush is also a no-op.
	if err := NewCSVSink(t.TempDir()).Flush(); err != nil {
		t.Fatal(err)
	}
}
