package turboflux

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// durableTestQuery is a 3-vertex path query over labeled vertices:
// u0(A) -e0-> u1(B) -e1-> u2(C).
func durableTestQuery(t *testing.T) *Query {
	t.Helper()
	q := NewQuery(3)
	q.SetLabels(0, 0)
	q.SetLabels(1, 1)
	q.SetLabels(2, 2)
	if err := q.AddEdge(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := q.AddEdge(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	return q
}

// durableTestStream builds a seeded bootstrap (labeled vertices) and a
// dense insert/delete stream with fan-out, so transcripts are sensitive
// to any state divergence.
func durableTestStream(seed int64, n int) (bootstrap, ups []Update) {
	for v := VertexID(0); v < 4; v++ {
		bootstrap = append(bootstrap, DeclareVertex(v, 0))
	}
	for v := VertexID(10); v < 16; v++ {
		bootstrap = append(bootstrap, DeclareVertex(v, 1))
	}
	for v := VertexID(20); v < 26; v++ {
		bootstrap = append(bootstrap, DeclareVertex(v, 2))
	}
	rng := rand.New(rand.NewSource(seed))
	live := map[Edge]bool{}
	for i := 0; i < n; i++ {
		var e Edge
		if rng.Intn(2) == 0 {
			e = Edge{From: VertexID(rng.Intn(4)), Label: 0, To: VertexID(10 + rng.Intn(6))}
		} else {
			e = Edge{From: VertexID(10 + rng.Intn(6)), Label: 1, To: VertexID(20 + rng.Intn(6))}
		}
		if live[e] {
			ups = append(ups, Delete(e.From, e.Label, e.To))
			delete(live, e)
		} else {
			ups = append(ups, Insert(e.From, e.Label, e.To))
			live[e] = true
		}
	}
	return bootstrap, ups
}

// transcriptRecorder appends one line per reported match.
func transcriptRecorder(b *strings.Builder) func(bool, []VertexID) {
	return func(positive bool, m []VertexID) {
		sign := "+"
		if !positive {
			sign = "-"
		}
		fmt.Fprintf(b, "%s %v\n", sign, m)
	}
}

// durableQ is the name the durable tests register durableTestQuery under.
const durableQ = "q"

// openDurableQuery opens dir as a durable MultiEngine with durableTestQuery
// as its one registration: the durable single-query case.
func openDurableQuery(t *testing.T, dir string, opt DurableMultiOptions, qopt Options) (*MultiEngine, error) {
	t.Helper()
	d, err := OpenDurableMulti(dir, opt)
	if err != nil {
		return nil, err
	}
	if err := d.Register(durableQ, durableTestQuery(t), qopt); err != nil {
		d.Close() //tf:unchecked-ok already failing
		return nil, err
	}
	return d, nil
}

func TestOpenDurableFreshAndRecover(t *testing.T) {
	dir := t.TempDir()
	bootstrap, ups := durableTestStream(7, 60)

	var live strings.Builder
	eng, err := openDurableQuery(t, dir, DurableMultiOptions{Bootstrap: bootstrap},
		Options{OnMatch: transcriptRecorder(&live)})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Recovery().Fresh {
		t.Fatal("first open of an empty dir must be Fresh")
	}
	if _, err := eng.ApplyBatch(ups); err != nil {
		t.Fatal(err)
	}
	wantLSN := uint64(len(bootstrap) + len(ups))
	if eng.LSN() != wantLSN {
		t.Fatalf("LSN = %d, want %d", eng.LSN(), wantLSN)
	}
	if !strings.Contains(live.String(), "+") || !strings.Contains(live.String(), "-") {
		t.Fatalf("stream produced no fan-out; transcript:\n%.300s", live.String())
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the graph comes back and the rebuilt DCG matches a fresh
	// engine over the same graph (recovery recomputes the plan from
	// current statistics, so that — not the lived-through engine's DCG,
	// whose plan was frozen at build time — is the reference).
	eng2, err := openDurableQuery(t, dir, DurableMultiOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close() //tf:unchecked-ok test cleanup
	rec := eng2.Recovery()
	if rec.Fresh || rec.Replayed != int(wantLSN) {
		t.Fatalf("recovery = %+v, want %d replayed", rec, wantLSN)
	}
	if got, want := eng2.Stats()[durableQ].DCGEdges, referenceDCGEdges(t, bootstrap, ups); got != want {
		t.Fatalf("recovered DCG has %d edges, fresh engine over same graph has %d", got, want)
	}
}

// referenceDCGEdges builds the graph by direct application and returns
// the DCG size of a fresh engine over it.
func referenceDCGEdges(t *testing.T, histories ...[]Update) int {
	t.Helper()
	g := NewGraph()
	for _, h := range histories {
		for _, u := range h {
			u.Apply(g)
		}
	}
	ref, err := newReference(g, durableTestQuery(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ref.DCG().NumEdges()
}

func TestOpenDurableCompactCycle(t *testing.T) {
	dir := t.TempDir()
	bootstrap, ups := durableTestStream(11, 80)
	eng, err := openDurableQuery(t, dir, DurableMultiOptions{Bootstrap: bootstrap}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyBatch(ups[:40]); err != nil {
		t.Fatal(err)
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyBatch(ups[40:]); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := openDurableQuery(t, dir, DurableMultiOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close() //tf:unchecked-ok test cleanup
	rec := eng2.Recovery()
	if rec.SnapshotLSN != uint64(len(bootstrap)+40) || rec.Replayed != 40 {
		t.Fatalf("recovery = %+v, want snapshot at %d + 40 replayed", rec, len(bootstrap)+40)
	}
	if got, want := eng2.Stats()[durableQ].DCGEdges, referenceDCGEdges(t, bootstrap, ups); got != want {
		t.Fatalf("recovered DCG has %d edges, fresh engine over same graph has %d", got, want)
	}
}

func TestOpenDurableDictAdoption(t *testing.T) {
	dir := t.TempDir()
	vd, ed := NewDict(), NewDict()
	a := vd.Intern("A")
	follows := ed.Intern("follows")
	eng, err := openDurableQuery(t, dir, DurableMultiOptions{
		VertexLabels: vd, EdgeLabels: ed,
		Bootstrap: []Update{DeclareVertex(1, a), DeclareVertex(2, a)},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert(1, follows, 2); err != nil {
		t.Fatal(err)
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with fresh (empty) dicts: recovered names are re-interned
	// into them with identical labels.
	vd2, ed2 := NewDict(), NewDict()
	eng2, err := openDurableQuery(t, dir, DurableMultiOptions{VertexLabels: vd2, EdgeLabels: ed2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l, ok := vd2.Lookup("A"); !ok || l != a {
		t.Fatalf("vertex dict not adopted: %d,%v", l, ok)
	}
	if l, ok := ed2.Lookup("follows"); !ok || l != follows {
		t.Fatalf("edge dict not adopted: %d,%v", l, ok)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}

	// Conflicting pre-interned names must be rejected, not silently
	// remapped.
	bad := NewDict()
	bad.Intern("not-A")
	if _, err := openDurableQuery(t, dir, DurableMultiOptions{VertexLabels: bad}, Options{}); err == nil {
		t.Fatal("conflicting dictionary should fail OpenDurableMulti")
	}
}

// TestDurableTranscriptEquivalence is the acceptance property: after a
// crash at any truncation point of the final journaled record, the
// recovered engine's transcript over subsequent updates is byte-identical
// to a never-crashed engine fed the same surviving prefix and the same
// subsequent updates.
func TestDurableTranscriptEquivalence(t *testing.T) {
	bootstrap, ups := durableTestStream(42, 90)
	phase1, phase2 := ups[:60], ups[60:]

	// Journal bootstrap + phase1 one update per record, then crash (abandon
	// without Close).
	dir := t.TempDir()
	eng, err := openDurableQuery(t, dir, DurableMultiOptions{Fsync: "none", Bootstrap: bootstrap}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range phase1 {
		if _, err := eng.Apply(u); err != nil {
			t.Fatal(err)
		}
	}

	// The last journaled record's frame: find the log tail length so we
	// can truncate at every byte offset of the final record.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	lastSeg := segs[len(segs)-1]
	full, err := os.ReadFile(lastSeg)
	if err != nil {
		t.Fatal(err)
	}

	// uncrashedTranscript replays prefixN surviving updates on a fresh
	// in-memory reference engine, then records the transcript of phase2.
	uncrashedTranscript := func(prefixN int) string {
		g := NewGraph()
		for _, u := range bootstrap {
			u.Apply(g)
		}
		var b strings.Builder
		ref, err := newReference(g, durableTestQuery(t), Options{OnMatch: transcriptRecorder(&b)})
		if err != nil {
			t.Fatal(err)
		}
		applyReference(t, ref, phase1[:prefixN])
		b.Reset()
		applyReference(t, ref, phase2)
		return b.String()
	}

	// Sweep truncation offsets covering the last few records of the log
	// tail (every byte offset of the final record and into the two
	// before it, exercising multiple prefix lengths).
	for cut := len(full) - 40; cut <= len(full); cut++ {
		crash := t.TempDir()
		if err := copyStoreDir(t, dir, crash); err != nil {
			t.Fatal(err)
		}
		target := filepath.Join(crash, filepath.Base(lastSeg))
		if err := os.Truncate(target, int64(cut)); err != nil {
			t.Fatal(err)
		}

		var b strings.Builder
		rec, err := openDurableQuery(t, crash, DurableMultiOptions{Fsync: "none"},
			Options{OnMatch: transcriptRecorder(&b)})
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		prefixN := int(rec.LSN()) - len(bootstrap)
		if prefixN < 0 || prefixN > len(phase1) {
			t.Fatalf("cut %d: surviving prefix %d out of range", cut, prefixN)
		}
		if _, err := rec.ApplyBatch(phase2); err != nil {
			t.Fatalf("cut %d: phase2 on recovered engine: %v", cut, err)
		}
		got := b.String()
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}

		if want := uncrashedTranscript(prefixN); got != want {
			t.Fatalf("cut %d (prefix %d): transcripts differ\nrecovered:\n%.400s\nuncrashed:\n%.400s",
				cut, prefixN, got, want)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// copyStoreDir clones the flat store directory src into dst.
func copyStoreDir(t *testing.T, src, dst string) error {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// TestDurableSnapshotRecoveryDeterminism pins the guarantee for
// snapshot-based recovery (a Compact in the history): reopening is fully
// deterministic — independent recoveries produce byte-identical
// transcripts — and the stream's match multiset equals the never-crashed
// engine's. Byte-identical *order* relative to the never-crashed engine
// is guaranteed only for pure log-replay recovery
// (TestDurableTranscriptEquivalence): snapshots store edges in canonical
// sorted order, so adjacency-list order — and with it within-update
// emission order — is normalized by recovery.
func TestDurableSnapshotRecoveryDeterminism(t *testing.T) {
	bootstrap, ups := durableTestStream(23, 120)
	phase1, phase2 := ups[:70], ups[70:]

	// Journal bootstrap + phase1 and snapshot there; the store on disk now
	// recovers to the post-phase1 state.
	dir := t.TempDir()
	eng, err := openDurableQuery(t, dir, DurableMultiOptions{Bootstrap: bootstrap}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyBatch(phase1); err != nil {
		t.Fatal(err)
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Never-crashed reference: a fresh core.Engine lives through the same
	// history and then phase2.
	g := NewGraph()
	for _, u := range bootstrap {
		u.Apply(g)
	}
	var refB strings.Builder
	ref, err := newReference(g, durableTestQuery(t), Options{OnMatch: transcriptRecorder(&refB)})
	if err != nil {
		t.Fatal(err)
	}
	applyReference(t, ref, phase1)
	refB.Reset()
	applyReference(t, ref, phase2)

	reopen := func() string {
		crash := t.TempDir()
		if err := copyStoreDir(t, dir, crash); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		rec, err := openDurableQuery(t, crash, DurableMultiOptions{}, Options{OnMatch: transcriptRecorder(&b)})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Recovery().SnapshotLSN == 0 {
			t.Fatal("expected snapshot-based recovery")
		}
		if _, err := rec.ApplyBatch(phase2); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	first := reopen()
	if second := reopen(); second != first {
		t.Fatalf("snapshot recovery is nondeterministic:\n%.300s\nvs\n%.300s", first, second)
	}
	sorted := func(s string) []string {
		lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
		sort.Strings(lines)
		return lines
	}
	got, want := sorted(first), sorted(refB.String())
	if len(got) != len(want) {
		t.Fatalf("recovered stream reported %d matches, never-crashed %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match multiset diverges at %d: %q vs %q", i, got[i], want[i])
		}
	}
}
