package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

// TestStoreAppendBatch checks the batched journal append: one call
// frames the whole batch as one write, hands back the LSN range, and a
// reopen recovers exactly the same graph as per-record appends. Append is
// a batch of one: journaling the same updates record by record leaves
// byte-identical segment files and taps byte-identical frames, which
// followers replicate verbatim.
func TestStoreAppendBatch(t *testing.T) {
	dir := t.TempDir()
	ups := testUpdates(300)
	s, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var tapped []byte
	s.SetTap(func(_, _ uint64, frames []byte) { tapped = append(tapped, frames...) })
	var lsn uint64
	for off := 0; off < len(ups); off += 64 {
		end := off + 64
		if end > len(ups) {
			end = len(ups)
		}
		first, last, err := s.AppendBatch(ups[off:end])
		if err != nil {
			t.Fatalf("AppendBatch at %d: %v", off, err)
		}
		if first != lsn+1 || last != lsn+uint64(end-off) {
			t.Fatalf("AppendBatch at %d: lsn range [%d,%d], want [%d,%d]",
				off, first, last, lsn+1, lsn+uint64(end-off))
		}
		lsn = last
		for _, u := range ups[off:end] {
			u.Apply(s.Graph())
		}
	}
	if s.LSN() != uint64(len(ups)) {
		t.Fatalf("LSN = %d, want %d", s.LSN(), len(ups))
	}
	// An empty batch is a no-op that does not consume sequence numbers.
	if first, last, err := s.AppendBatch(nil); err != nil || first != lsn || last != lsn {
		t.Fatalf("empty AppendBatch = (%d, %d, %v), want (%d, %d, nil)", first, last, err, lsn, lsn)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //tf:unchecked-ok test cleanup
	rec := s2.Recovery()
	if rec.Fresh || rec.Replayed != len(ups) || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v, want %d replayed clean", rec, len(ups))
	}
	sameGraph(t, s2.Graph(), graphFromPrefix(ups, len(ups)))

	singlesDir := t.TempDir()
	s1, err := Open(singlesDir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	var tappedSingles []byte
	s1.SetTap(func(_, _ uint64, frames []byte) { tappedSingles = append(tappedSingles, frames...) })
	appendAll(t, s1, ups)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tappedSingles, tapped) {
		t.Fatal("Append singles tapped other frames than AppendBatch runs")
	}
	if got, want := segmentFiles(t, singlesDir), segmentFiles(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatal("Append singles wrote other segment files than AppendBatch runs")
	}
}

// segmentFiles reads every WAL segment in dir, by file name.
func segmentFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(names) == 0 {
		t.Fatalf("segments in %s: %v, %v", dir, names, err)
	}
	files := make(map[string][]byte, len(names))
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(name)] = data
	}
	return files
}

// TestStoreRecoveryReplay pins recovery's one apply path: reopening a
// store replays every journaled record onto the graph — two full runs and
// a partial one — with the Replayed accounting and LSN to match, and
// recovers exactly the graph the history describes.
func TestStoreRecoveryReplay(t *testing.T) {
	dir := t.TempDir()
	ups := testUpdates(2 * replayRun)
	for i := 0; i < 7; i++ { // a partial last run of edges nothing else adds
		ups = append(ups, stream.Insert(graph.VertexID(100+i), 0, graph.VertexID(200+i)))
	}
	s, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, ups)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //tf:unchecked-ok test cleanup
	if rec := s.Recovery(); rec.Replayed != len(ups) {
		t.Fatalf("replayed %d, want %d", rec.Replayed, len(ups))
	}
	if s.LSN() != uint64(len(ups)) {
		t.Fatalf("LSN = %d, want %d", s.LSN(), len(ups))
	}
	sameGraph(t, s.Graph(), graphFromPrefix(ups, len(ups)))
}
