package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

// Options configures a Store.
type Options struct {
	// Fsync selects the WAL sync policy (default FsyncInterval).
	Fsync Policy
	// SegmentSize rotates the WAL once the active segment reaches this
	// many bytes (default 4 MiB).
	SegmentSize int64
	// VertexLabels / EdgeLabels, when non-nil, become the store's live
	// label dictionaries: the recovered snapshot's names are re-interned
	// into them, and must come back as the labels the snapshot gave them
	// (so patterns parsed through them keep meaning the same labels across
	// restarts).
	VertexLabels, EdgeLabels *graph.Dict
}

// replayRun is how many recovered records Open decodes before applying
// them.
const replayRun = 1024

func (o *Options) applyDefaults() {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
}

// RecoveryInfo describes what Open found on disk.
type RecoveryInfo struct {
	// SnapshotLSN is the covered LSN of the snapshot recovery started
	// from (0 when none).
	SnapshotLSN uint64
	// Replayed is the number of WAL records applied on top of it.
	Replayed int
	// TruncatedBytes is the size of the torn or corrupt log tail that was
	// discarded.
	TruncatedBytes int
	// Fresh reports that the directory held no snapshot and no records.
	Fresh bool
}

// Store is the durable state of one engine: a data graph, its label
// dictionaries, and the WAL journaling every change. Not safe for
// concurrent use.
type Store struct {
	dir     string
	created bool // Open made dir
	opt     Options

	w     *wal
	g     *graph.Graph
	vdict *graph.Dict
	edict *graph.Dict

	lsn     uint64 // LSN of the last record appended or recovered
	snapLSN uint64 // covered LSN of the newest snapshot on disk
	rec     RecoveryInfo

	// tap, when set, observes every successful append (see SetTap).
	tap Tap
	// pins holds the active replication pins protecting segments and
	// snapshots from Compact. Owned by the store's single-threaded caller,
	// like every other field.
	pins map[*Pin]struct{}
}

// Open recovers (or initializes) the store in dir: it loads the newest
// valid snapshot, merges its label dictionaries into the caller's, replays
// the WAL tail on top of it, truncates any torn or corrupt log tail, and
// leaves the log open for appending.
func Open(dir string, opt Options) (*Store, error) {
	opt.applyDefaults()
	_, statErr := os.Stat(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snapLSN, g, vdict, edict, err := newestValidSnapshot(dir)
	if err != nil {
		return nil, err
	}
	// The dictionaries are merged before the log replays: records carry
	// labels, not names.
	if vdict, err = adoptDict(opt.VertexLabels, vdict, "vertex"); err != nil {
		return nil, err
	}
	if edict, err = adoptDict(opt.EdgeLabels, edict, "edge"); err != nil {
		return nil, err
	}
	s := &Store{
		dir: dir, created: errors.Is(statErr, os.ErrNotExist), opt: opt,
		g: g, vdict: vdict, edict: edict, snapLSN: snapLSN, pins: make(map[*Pin]struct{}),
	}
	s.rec.SnapshotLSN = snapLSN

	// Records are applied in runs, once a run is decoded, not one by one as
	// they are scanned: the same mutations, but interleaving decode and
	// apply made reopen measurably slower (DESIGN.md §12).
	run := make([]stream.Update, 0, replayRun)
	res, err := scanWAL(dir, snapLSN, func(lsn uint64, u stream.Update) error {
		if err := stream.CheckIDs(u); err != nil {
			return fmt.Errorf("durable: log record %d: %w", lsn, err)
		}
		if run = append(run, u); len(run) == replayRun {
			stream.ApplyAll(g, run)
			run = run[:0]
		}
		s.rec.Replayed++
		return nil
	})
	stream.ApplyAll(g, run)
	if err != nil {
		return nil, err
	}
	s.rec.TruncatedBytes = res.truncated
	s.lsn = res.lastLSN

	w := &wal{dir: dir, policy: opt.Fsync, segSize: opt.SegmentSize}
	switch {
	case s.lsn < snapLSN:
		// The usable log prefix ended before the snapshot's coverage
		// (possible when an old segment is corrupted after a newer
		// snapshot was written). The log contributes nothing; restart it
		// after the snapshot so future LSNs never collide.
		if err := removeAllSegments(dir); err != nil {
			return nil, err
		}
		s.lsn = snapLSN
		if err := w.openSegment(snapLSN+1, true); err != nil {
			return nil, err
		}
	case res.activeLSN == s.lsn+1 && !segmentExists(dir, res.activeLSN):
		// Empty log (fresh store or everything compacted away).
		if err := w.openSegment(res.activeLSN, true); err != nil {
			return nil, err
		}
	default:
		if err := w.openSegment(res.activeLSN, false); err != nil {
			return nil, err
		}
	}
	w.nextLSN = s.lsn + 1
	s.w = w
	s.rec.Fresh = snapLSN == 0 && s.lsn == 0
	return s, nil
}

// adoptDict merges the recovered dictionary's names into the caller's
// dictionary (when one was supplied) and returns the dictionary the store
// keeps live. Re-interning the recovered names in order must reproduce
// the recovered labels, otherwise the caller's labels and the persisted
// graph disagree.
func adoptDict(user, recovered *graph.Dict, kind string) (*graph.Dict, error) {
	if user == nil {
		return recovered, nil
	}
	for i := 0; i < recovered.Len(); i++ {
		name := recovered.Name(graph.Label(i))
		if got := user.Intern(name); got != graph.Label(i) {
			return nil, fmt.Errorf(
				"durable: %s label dictionary mismatch: recovered %q as label %d, caller has it as %d",
				kind, name, i, got)
		}
	}
	return user, nil
}

func segmentExists(dir string, firstLSN uint64) bool {
	_, err := os.Stat(filepath.Join(dir, segName(firstLSN)))
	return err == nil
}

func removeAllSegments(dir string) error {
	firsts, err := segmentList(dir)
	if err != nil {
		return err
	}
	var res scanResult
	if err := dropSegments(dir, firsts, &res); err != nil {
		return err
	}
	return syncDir(dir)
}

// Recovery returns what Open found.
func (s *Store) Recovery() RecoveryInfo { return s.rec }

// Graph returns the recovered data graph. The caller (normally the
// engine) owns and mutates it; the store only reads it during Compact.
func (s *Store) Graph() *graph.Graph { return s.g }

// VertexLabels returns the live vertex-label dictionary.
func (s *Store) VertexLabels() *graph.Dict { return s.vdict }

// EdgeLabels returns the live edge-label dictionary.
func (s *Store) EdgeLabels() *graph.Dict { return s.edict }

// LSN returns the LSN of the last appended or recovered record.
func (s *Store) LSN() uint64 { return s.lsn }

// Append journals u and returns its LSN: a batch of one, the same bytes
// and the same write as AppendBatch([]stream.Update{u}).
func (s *Store) Append(u stream.Update) (uint64, error) {
	lsn, _, err := s.AppendBatch([]stream.Update{u})
	return lsn, err
}

// AppendBatch journals ups as one write and returns the LSN range
// [first, last] it was assigned. It does not apply the updates to the
// graph; the engine does that after journaling succeeds (write-ahead
// order). Every append reaches the tap through here. An empty batch is a
// no-op returning the current LSN twice.
//
//tf:hotpath
func (s *Store) AppendBatch(ups []stream.Update) (first, last uint64, err error) {
	if s.w == nil {
		return 0, 0, errClosed
	}
	if len(ups) == 0 {
		return s.lsn, s.lsn, nil
	}
	first, last, err = s.w.AppendBatch(ups)
	if err != nil {
		return 0, 0, fmt.Errorf("durable: journaling batch of %d: %w", len(ups), err) //tf:alloc-ok error path
	}
	s.lsn = last
	if s.tap != nil {
		s.tap(first, last, s.w.buf)
	}
	return first, last, nil
}

var errClosed = errors.New("durable: store is closed")

// Sync forces journaled records to stable storage regardless of policy.
func (s *Store) Sync() error {
	if s.w == nil {
		return errClosed
	}
	return s.w.Sync()
}

// Compact writes a fresh snapshot covering every journaled record and
// drops the log segments and snapshots it makes obsolete. The caller must
// ensure the graph reflects exactly the journaled history (i.e. call it
// between updates, not mid-apply).
func (s *Store) Compact() error {
	if s.w == nil {
		return errClosed
	}
	// Rotate first so the active segment starts at lsn+1 and every other
	// segment becomes fully covered by the snapshot.
	if err := s.w.rotate(); err != nil {
		return err
	}
	if err := writeSnapshot(s.dir, s.lsn, s.g, s.vdict, s.edict); err != nil {
		return err
	}
	s.snapLSN = s.lsn
	pinAfter, pinnedSnaps, pinned := s.pinnedFloor()
	// Retain the two newest snapshots so a corrupt newest one can still
	// fall back to its predecessor with a full replay tail; drop the rest,
	// except snapshots an active replication catch-up stream is reading.
	lsns, err := snapshotList(s.dir)
	if err != nil {
		return err
	}
	for _, l := range lsns[min(2, len(lsns)):] {
		if pinnedSnaps[l] {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, snapName(l))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	// Obsolete segments: those whose every record is covered by the oldest
	// retained snapshot (a segment ends where the next one begins; the
	// active segment always stays). A replication pin lowers the floor:
	// segments holding records a catch-up stream has yet to ship must stay.
	floor := lsns[min(2, len(lsns))-1]
	if pinned && pinAfter < floor {
		floor = pinAfter
	}
	firsts, err := segmentList(s.dir)
	if err != nil {
		return err
	}
	var res scanResult
	for i, first := range firsts {
		if first == s.w.firstLSN || i+1 >= len(firsts) {
			break
		}
		if firsts[i+1] > floor+1 {
			break // ascending: later segments are covered even less
		}
		if err := dropSegments(s.dir, []uint64{first}, &res); err != nil {
			return err
		}
	}
	return syncDir(s.dir)
}

// Close syncs and closes the log. The store is unusable afterwards.
func (s *Store) Close() error {
	if s.w == nil {
		return nil
	}
	err := s.w.Close()
	s.w = nil
	return err
}

// Discard closes a store that opened fresh and deletes what it wrote:
// every log segment, and the directory when Open created it. The
// directory then opens fresh again. A store that did not open fresh is
// left as it is.
func (s *Store) Discard() error {
	if !s.rec.Fresh {
		return errors.New("durable: only a store that opened fresh can be discarded")
	}
	cerr := s.Close()
	if err := removeAllSegments(s.dir); err != nil {
		return err
	}
	if s.created {
		if err := os.Remove(s.dir); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return cerr
}
