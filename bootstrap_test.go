package turboflux

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"turboflux/internal/workload"
)

// workloadG0 is a generated initial graph as a bootstrap history (every
// vertex declaration, then every edge, as turboflux-gen writes g0) and as
// text, with comment and blank lines between records that a window must
// not count.
func workloadG0(t *testing.T) ([]Update, string) {
	t.Helper()
	g := workload.LSBench(workload.LSBenchConfig{Users: 300, Seed: 7}).Graph
	var ups []Update
	g.ForEachVertex(func(v VertexID) { ups = append(ups, DeclareVertex(v, g.Labels(v)...)) })
	g.ForEachEdge(func(e Edge) { ups = append(ups, Insert(e.From, e.Label, e.To)) })
	if len(ups) < 2*bootstrapWindow+1 {
		t.Fatalf("g0 of %d records spans fewer than three windows", len(ups))
	}
	var sb strings.Builder
	for i := 0; i < len(ups); i += 1000 {
		if err := EncodeStream(&sb, ups[i:min(i+1000, len(ups))]); err != nil {
			t.Fatal(err)
		}
		sb.WriteString("# a comment\n\n")
	}
	return ups, sb.String()
}

// graphBytes is g's canonical (sorted) binary encoding: equal bytes, equal
// vertices, labels and edges.
func graphBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := g.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestBootstrapFromEquivalence: bootstrapping from the text of a g0 leaves
// what bootstrapping from its decoded history leaves — the same WAL
// segment files byte for byte, the same graph, and the same state after
// reopening — with one segment and with several.
func TestBootstrapFromEquivalence(t *testing.T) {
	ups, text := workloadG0(t)
	for _, segSize := range []int64{0, 64 << 10} {
		fromSlice, fromText := t.TempDir(), t.TempDir()
		open := func(dir string, opt DurableMultiOptions) *MultiEngine {
			opt.Fsync, opt.SegmentSize = "none", segSize
			d, err := OpenDurableMulti(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		a := open(fromSlice, DurableMultiOptions{Bootstrap: ups})
		b := open(fromText, DurableMultiOptions{BootstrapFrom: strings.NewReader(text)})
		if a.LSN() != uint64(len(ups)) || b.LSN() != a.LSN() {
			t.Fatalf("segment size %d: LSN %d from text, %d from the slice, want %d", segSize, b.LSN(), a.LSN(), len(ups))
		}
		want := graphBytes(t, a.Graph())
		if !bytes.Equal(graphBytes(t, b.Graph()), want) {
			t.Fatalf("segment size %d: the graphs differ", segSize)
		}
		for _, d := range []*MultiEngine{a, b} {
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
		da, db := readDir(t, fromSlice), readDir(t, fromText)
		if strings.Join(da.names, " ") != strings.Join(db.names, " ") || !bytes.Equal(da.bytes, db.bytes) {
			t.Fatalf("segment size %d: directories differ: %v vs %v", segSize, da.names, db.names)
		}
		if segSize > 0 && len(da.names) < 3 {
			t.Fatalf("segment size %d: expected rotation, got %v", segSize, da.names)
		}
		for _, dir := range []string{fromSlice, fromText} {
			r := open(dir, DurableMultiOptions{})
			if r.Recovery().Fresh || r.LSN() != uint64(len(ups)) || !bytes.Equal(graphBytes(t, r.Graph()), want) {
				t.Fatalf("segment size %d: reopen %s: recovery %+v, LSN %d, or its graph differs", segSize, dir, r.Recovery(), r.LSN())
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// unreadable fails the test on its first Read: a recovered store must
// never read its bootstrap.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("a recovered store read its bootstrap")
	return 0, errors.New("unreadable")
}

// TestBootstrapFromNotReadOnRecovery: reopening a store with a bootstrap
// reader, as a restarted turboflux-serve -graph does, reads none of it.
func TestBootstrapFromNotReadOnRecovery(t *testing.T) {
	dir := t.TempDir()
	boot := "v 1 0\nv 2 0\ni 1 2 2\n"
	d, err := OpenDurableMulti(dir, DurableMultiOptions{Fsync: "none", BootstrapFrom: strings.NewReader(boot)})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := OpenDurableMulti(dir, DurableMultiOptions{BootstrapFrom: unreadable{t}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Recovery().Fresh || m.Graph().NumEdges() != 1 {
		t.Fatalf("reopen: recovery %+v, %d edges", m.Recovery(), m.Graph().NumEdges())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBootstrapFromAtomicOnError: a malformed record after the second
// window fails the open by its line, and leaves nothing behind — a
// directory the open created is gone, one that existed holds no segment —
// so the next open finds it fresh and bootstraps it whole.
func TestBootstrapFromAtomicOnError(t *testing.T) {
	ups, _ := workloadG0(t)
	var sb strings.Builder
	if err := EncodeStream(&sb, ups); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(sb.String(), "\n")
	bad := 2*bootstrapWindow + 10 // 0-based: line bad+1
	broken := strings.Join(lines[:bad], "") + "i 1 oops 2\n" + strings.Join(lines[bad:], "")

	for _, created := range []bool{false, true} {
		dir := t.TempDir()
		if created {
			dir = filepath.Join(dir, "state")
		}
		opt := DurableMultiOptions{Fsync: "none", SegmentSize: 64 << 10, BootstrapFrom: strings.NewReader(broken)}
		_, err := OpenDurableMulti(dir, opt)
		want := fmt.Sprintf(`stream: line %d: bad label "oops"`, bad+1)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("created %v: open error %v, want %s…", created, err, want)
		}
		if _, err := os.Stat(dir); created != errors.Is(err, os.ErrNotExist) {
			t.Fatalf("created %v: stat after the failed open: %v", created, err)
		}
		if !created {
			if c := readDir(t, dir); len(c.names) != 0 {
				t.Fatalf("the failed bootstrap left %v", c.names)
			}
		}

		opt.BootstrapFrom = nil
		d, err := OpenDurableMulti(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		if rec := d.Recovery(); !rec.Fresh || d.LSN() != 0 || d.Graph().NumVertices() != 0 {
			t.Fatalf("created %v: after the failed bootstrap: recovery %+v, LSN %d, %d vertices",
				created, rec, d.LSN(), d.Graph().NumVertices())
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		opt.BootstrapFrom = strings.NewReader(sb.String())
		if d, err = OpenDurableMulti(dir, opt); err != nil {
			t.Fatal(err)
		}
		if d.LSN() != uint64(len(ups)) {
			t.Fatalf("created %v: the retried bootstrap journaled %d of %d records", created, d.LSN(), len(ups))
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBootstrapSourcesExclusive: a history and a reader together are
// refused before anything is opened.
func TestBootstrapSourcesExclusive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	_, err := OpenDurableMulti(dir, DurableMultiOptions{
		Bootstrap:     []Update{DeclareVertex(1)},
		BootstrapFrom: strings.NewReader("v 1\n"),
	})
	if err == nil || !strings.Contains(err.Error(), "not both") {
		t.Fatalf("open error %v, want a refusal", err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the refused open made its directory: %v", err)
	}
}
