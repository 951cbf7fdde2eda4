package turboflux

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"turboflux/internal/durable"
)

// socialQuery builds the two-Person knows query used across these tests.
// Labels: 0:Person; edges: 2:knows (matching the multiFixture convention).
func socialQuery() *Query {
	q := NewQuery(2)
	q.SetLabels(0, 0)
	q.SetLabels(1, 0)
	_ = q.AddEdge(0, 2, 1)
	return q
}

func TestDurableMultiFreshAndReopen(t *testing.T) {
	dir := t.TempDir()
	boot := []Update{
		DeclareVertex(1, 0),
		DeclareVertex(2, 0),
		DeclareVertex(3, 0),
	}
	d, err := OpenDurableMulti(dir, DurableMultiOptions{Fsync: "always", Bootstrap: boot})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Recovery().Fresh {
		t.Fatalf("recovery = %+v, want fresh", d.Recovery())
	}
	if err := d.Register("social", socialQuery(), Options{}); err != nil {
		t.Fatal(err)
	}
	counts, err := d.Insert(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if counts["social"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if _, err := d.Insert(2, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delete(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	lsn := d.LSN()
	if lsn == 0 {
		t.Fatal("LSN zero after journaled updates")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the graph comes back from the journal; registrations do not —
	// the replacement query's initial matching covers the recovered state.
	d2, err := OpenDurableMulti(dir, DurableMultiOptions{Fsync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close() //tf:unchecked-ok test cleanup
	rec := d2.Recovery()
	if rec.Fresh {
		t.Fatal("second open must not be fresh")
	}
	if rec.TruncatedBytes != 0 {
		t.Fatalf("clean close left %d torn bytes", rec.TruncatedBytes)
	}
	if got := d2.Graph().NumEdges(); got != 1 {
		t.Fatalf("recovered edges = %d, want 1", got)
	}
	if got := d2.Queries(); len(got) != 0 {
		t.Fatalf("registrations must not survive reopen, got %v", got)
	}
	if err := d2.Register("social", socialQuery(), Options{}); err != nil {
		t.Fatal(err)
	}
	init := d2.InitialMatches()
	if init["social"] != 1 {
		t.Fatalf("initial after recovery = %v, want the surviving knows edge", init)
	}
	// Matching resumes where the log ends.
	counts, err = d2.Insert(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if counts["social"] != 1 {
		t.Fatalf("counts after recovery = %v", counts)
	}
	if d2.LSN() <= lsn {
		t.Fatalf("LSN %d did not advance past %d", d2.LSN(), lsn)
	}
	if st := d2.Stats(); st["social"].PositiveMatches != 1 {
		t.Fatalf("stats = %+v", st["social"])
	}
}

func TestDurableMultiCompact(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurableMulti(dir, DurableMultiOptions{Fsync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []Update{DeclareVertex(1, 0), DeclareVertex(2, 0)} {
		if _, err := d.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Insert(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurableMulti(dir, DurableMultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close() //tf:unchecked-ok test cleanup
	if d2.Recovery().Replayed != 0 {
		t.Fatalf("post-compact reopen replayed %d updates, want snapshot only", d2.Recovery().Replayed)
	}
	if got := d2.Graph().NumEdges(); got != 1 {
		t.Fatalf("recovered edges = %d", got)
	}
	if d2.VertexLabels() == nil || d2.EdgeLabels() == nil {
		t.Fatal("store dictionaries missing")
	}
}

func TestDurableMultiBadFsync(t *testing.T) {
	if _, err := OpenDurableMulti(t.TempDir(), DurableMultiOptions{Fsync: "sometimes"}); err == nil {
		t.Fatal("bad fsync policy must fail")
	}
}

// TestJournalMethodsWithoutJournal: an engine built by NewMultiEngine
// answers the journal's queries with zero values and refuses its commands
// with one error, changing nothing; a closed durable engine refuses
// updates before they reach its graph.
func TestJournalMethodsWithoutJournal(t *testing.T) {
	m := NewMultiEngine(NewGraph())
	defer m.Close() //tf:unchecked-ok test cleanup
	if _, err := m.Insert(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if rec := m.Recovery(); rec != (RecoveryInfo{}) {
		t.Errorf("Recovery = %+v, want the zero value", rec)
	}
	if m.LSN() != 0 || m.Store() != nil || m.VertexLabels() != nil || m.EdgeLabels() != nil {
		t.Errorf("LSN %d, Store %v, dictionaries %v %v; want 0 and nils", m.LSN(), m.Store(), m.VertexLabels(), m.EdgeLabels())
	}
	for name, err := range map[string]error{"Compact": m.Compact(), "Sync": m.Sync(), "Reseed": m.Reseed(nil)} {
		if !errors.Is(err, errNotDurable) {
			t.Errorf("%s: err = %v, want %v", name, err, errNotDurable)
		}
	}
	if g := m.Graph(); g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Errorf("graph changed: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}

	d, err := OpenDurableMulti(t.TempDir(), DurableMultiOptions{Fsync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = d.Apply(Insert(2, 2, 3))
	if err == nil || err.Error() != "durable: store is closed" {
		t.Errorf("Apply after Close: err = %v, want durable: store is closed", err)
	}
	_, err = d.ApplyBatch([]Update{Insert(2, 2, 3), Delete(1, 2, 2)})
	if err == nil || err.Error() != "durable: store is closed" {
		t.Errorf("ApplyBatch after Close: err = %v, want durable: store is closed", err)
	}
	if g := d.Graph(); g.NumVertices() != 2 || g.NumEdges() != 1 || !g.HasEdge(1, 2, 2) {
		t.Errorf("refused updates changed the graph: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
}

// bootstrapHistory is a bootstrap long enough to span several journaling
// windows: labeled declarations, inserts and a few deletes.
func bootstrapHistory(n int) []Update {
	ups := make([]Update, 0, n)
	for v := VertexID(0); len(ups) < n/3; v++ {
		ups = append(ups, DeclareVertex(v, Label(v%3), Label(3+v%2)))
	}
	verts := VertexID(len(ups))
	for i := 0; len(ups) < n; i++ {
		from, to := VertexID(i)%verts, VertexID(i*7+1)%verts
		if i%10 == 9 {
			ups = append(ups, Delete((from-3)%verts, Label((i-3)%4), (to-21)%verts)) // the edge inserted three steps back
		} else {
			ups = append(ups, Insert(from, Label(i%4), to))
		}
	}
	return ups
}

// TestBootstrapJournaledInWindows: a fresh store journals its bootstrap in
// windows of bootstrapWindow records; what that leaves on disk must be
// what journaling record by record leaves — the same files byte for byte
// while the history fits one segment, the same frames and last LSN when
// segments rotate (a window ends a segment later than a record does) —
// and reopening either directory must recover the same graph.
func TestBootstrapJournaledInWindows(t *testing.T) {
	boot := bootstrapHistory(2*bootstrapWindow + 1500)
	for _, segSize := range []int64{0, 16 << 10} {
		byRecord, byWindow := t.TempDir(), t.TempDir()

		st, err := durable.Open(byRecord, durable.Options{Fsync: durable.FsyncNone, SegmentSize: segSize})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range boot {
			if _, err := st.Append(u); err != nil {
				t.Fatal(err)
			}
		}
		wantLSN := st.LSN()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		opt := DurableMultiOptions{Fsync: "none", SegmentSize: segSize}
		opt.Bootstrap = boot
		d, err := OpenDurableMulti(byWindow, opt)
		if err != nil {
			t.Fatal(err)
		}
		if d.LSN() != wantLSN {
			t.Fatalf("segment size %d: last LSN %d, record by record %d", segSize, d.LSN(), wantLSN)
		}
		want := d.Graph().Clone()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		a, b := readDir(t, byRecord), readDir(t, byWindow)
		if segSize == 0 {
			if len(a.names) != len(b.names) || strings.Join(a.names, " ") != strings.Join(b.names, " ") {
				t.Fatalf("directories differ: %v vs %v", a.names, b.names)
			}
		} else if len(a.names) < 3 || len(b.names) < 3 {
			t.Fatalf("segment size %d: expected rotation, got %v and %v", segSize, a.names, b.names)
		}
		if !bytes.Equal(a.bytes, b.bytes) {
			t.Fatalf("segment size %d: journaled bytes differ (%d vs %d)", segSize, len(a.bytes), len(b.bytes))
		}

		opt.Bootstrap = nil
		for _, dir := range []string{byRecord, byWindow} {
			r, err := OpenDurableMulti(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := r.Graph()
			if r.Recovery().Fresh || r.LSN() != wantLSN || got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
				t.Fatalf("reopen %s: recovery %+v, LSN %d, %d vertices, %d edges; want LSN %d, %d vertices, %d edges",
					dir, r.Recovery(), r.LSN(), got.NumVertices(), got.NumEdges(), wantLSN, want.NumVertices(), want.NumEdges())
			}
			for _, e := range want.Edges() {
				if !got.HasEdge(e.From, e.Label, e.To) {
					t.Fatalf("reopen %s: edge %v lost", dir, e)
				}
			}
			want.ForEachVertex(func(v VertexID) {
				if fmt.Sprint(got.Labels(v)) != fmt.Sprint(want.Labels(v)) {
					t.Fatalf("reopen %s: vertex %d labels %v, want %v", dir, v, got.Labels(v), want.Labels(v))
				}
			})
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// dirContent is a directory's file names, sorted, and their concatenated
// contents (WAL segments sort by first LSN, so that is the frame stream).
type dirContent struct {
	names []string
	bytes []byte
}

func readDir(t *testing.T, dir string) dirContent {
	t.Helper()
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	var c dirContent
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		c.names = append(c.names, e.Name())
		c.bytes = append(c.bytes, b...)
	}
	return c
}
