package turboflux

import (
	"errors"
	"fmt"
	"io"
	"time"

	"turboflux/internal/durable"
	"turboflux/internal/stream"
)

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Options configures the matching engine exactly as for NewEngine.
	Options

	// Fsync is the WAL sync policy: "always" (sync per update),
	// "interval" (default: sync at most once per FsyncInterval) or
	// "none" (sync only on Sync/Close).
	Fsync string
	// FsyncInterval is the "interval" policy period (default 100ms).
	FsyncInterval time.Duration
	// SegmentSize rotates the log once the active segment reaches this
	// many bytes (default 4 MiB).
	SegmentSize int64

	// VertexLabels / EdgeLabels, when non-nil, become the engine's label
	// dictionaries. On a fresh store they are adopted as-is; on recovery
	// the snapshot's names are re-interned into them first and must agree
	// with any labels already interned (so patterns parsed through them
	// keep meaning the same labels across restarts).
	VertexLabels, EdgeLabels *Dict

	// Bootstrap is an optional initial-graph history (vertex declarations
	// and edge insertions). It is journaled and applied only when the
	// store is fresh; on recovery it is ignored, because the store already
	// contains it.
	Bootstrap []Update
	// BootstrapFrom is Bootstrap in the text stream format, decoded a
	// window at a time as it is journaled, so the history is never held
	// whole. It is read only when the store is fresh; a malformed line
	// fails the open and leaves the directory fresh. Set at most one of
	// Bootstrap and BootstrapFrom.
	BootstrapFrom io.Reader
}

// RecoveryInfo describes what OpenDurable found on disk.
type RecoveryInfo struct {
	// SnapshotLSN is the log position covered by the snapshot recovery
	// started from (0 when none existed).
	SnapshotLSN uint64
	// Replayed is the number of journaled updates re-applied on top.
	Replayed int
	// TruncatedBytes is the size of the torn or corrupt log tail
	// discarded on open.
	TruncatedBytes int
	// Fresh reports that the directory held no prior state.
	Fresh bool
}

// DurableEngine is an Engine whose update stream survives process
// crashes: every Insert, Delete and Apply is journaled to a checksummed
// write-ahead log before evaluation, and Compact writes an atomic
// snapshot of the data graph and label dictionaries. Reopening the same
// directory recovers the graph and resumes matching exactly where the
// surviving log prefix ends.
//
// Matches are not journaled — they are recomputed from state. A recovered
// engine reports the same matches for the same subsequent updates as one
// that never crashed (see TestDurableTranscriptEquivalence).
type DurableEngine struct {
	journal
	eng *Engine
}

// OpenDurable opens (or creates) the durable store in dir, recovers the
// data graph from its newest valid snapshot plus the journaled tail, and
// builds a matching engine for q over the recovered graph.
func OpenDurable(dir string, q *Query, opt DurableOptions) (*DurableEngine, error) {
	j, err := openStore(dir, DurableMultiOptions{
		Fsync:         opt.Fsync,
		FsyncInterval: opt.FsyncInterval,
		SegmentSize:   opt.SegmentSize,
		VertexLabels:  opt.VertexLabels,
		EdgeLabels:    opt.EdgeLabels,
		Bootstrap:     opt.Bootstrap,
		BootstrapFrom: opt.BootstrapFrom,
	})
	if err != nil {
		return nil, err
	}
	eng, err := NewEngine(j.store.Graph(), q, opt.Options)
	if err != nil {
		j.store.Close() //tf:unchecked-ok already failing
		return nil, err
	}
	return &DurableEngine{journal: j, eng: eng}, nil
}

// journal is the durable half DurableEngine and DurableMultiEngine share:
// the write-ahead store and what opening it found on disk.
type journal struct {
	store *durable.Store
	rec   RecoveryInfo
}

// bootstrapWindow is how many bootstrap records openStore journals per
// write.
const bootstrapWindow = 4096

// openStore is the open sequence of both durable engines: open (or
// create) the store in dir, merge the recovered label dictionaries into
// the caller's, and journal + apply the bootstrap history when the store
// is fresh. It reads only opt's store fields (everything but
// FanOutWorkers).
func openStore(dir string, opt DurableMultiOptions) (journal, error) {
	if opt.Bootstrap != nil && opt.BootstrapFrom != nil {
		return journal{}, errors.New("turboflux: set Bootstrap or BootstrapFrom, not both")
	}
	pol, err := durable.ParsePolicy(opt.Fsync)
	if err != nil {
		return journal{}, err
	}
	st, err := durable.Open(dir, durable.Options{
		Fsync:        pol,
		FsyncEvery:   opt.FsyncInterval,
		SegmentSize:  opt.SegmentSize,
		VertexLabels: opt.VertexLabels,
		EdgeLabels:   opt.EdgeLabels,
	})
	if err != nil {
		return journal{}, err
	}
	vd, err := adoptDict(opt.VertexLabels, st.VertexLabels(), "vertex")
	if err != nil {
		st.Close() //tf:unchecked-ok already failing
		return journal{}, err
	}
	ed, err := adoptDict(opt.EdgeLabels, st.EdgeLabels(), "edge")
	if err != nil {
		st.Close() //tf:unchecked-ok already failing
		return journal{}, err
	}
	st.SetDicts(vd, ed)

	rec := st.Recovery()
	if rec.Fresh {
		// Journal the bootstrap a window at a time, then apply the window:
		// one write per window instead of one per record, the same frames.
		// A bootstrap that fails partway is discarded whole, so the next
		// open finds the directory fresh and bootstraps again instead of
		// taking the journaled part for the history.
		err := bootstrapWindows(opt, func(window []Update) error {
			if _, _, err := st.AppendBatch(window); err != nil {
				return err
			}
			stream.ApplyAll(st.Graph(), window)
			return nil
		})
		if err != nil {
			st.Discard() //tf:unchecked-ok already failing
			return journal{}, err
		}
	}
	return journal{store: st, rec: RecoveryInfo{
		SnapshotLSN:    rec.SnapshotLSN,
		Replayed:       rec.Replayed,
		TruncatedBytes: rec.TruncatedBytes,
		Fresh:          rec.Fresh,
	}}, nil
}

// bootstrapWindows hands fn the bootstrap history in windows of
// bootstrapWindow records, from whichever of opt's sources is set. Both
// sources cut the same windows, so they journal the same frames.
func bootstrapWindows(opt DurableMultiOptions, fn func([]Update) error) error {
	if opt.BootstrapFrom != nil {
		return stream.DecodeWindows(opt.BootstrapFrom, bootstrapWindow, fn)
	}
	for ups := opt.Bootstrap; len(ups) > 0; {
		n := min(len(ups), bootstrapWindow)
		if err := fn(ups[:n]); err != nil {
			return err
		}
		ups = ups[n:]
	}
	return nil
}

// Recovery returns what opening the store found on disk.
func (j *journal) Recovery() RecoveryInfo { return j.rec }

// Compact writes a fresh snapshot covering the whole journaled history
// and drops the log segments it makes obsolete, bounding both recovery
// time and disk usage.
func (j *journal) Compact() error { return j.store.Compact() }

// Sync forces journaled updates to stable storage regardless of the
// fsync policy.
func (j *journal) Sync() error { return j.store.Sync() }

// LSN returns the log position of the last journaled update.
func (j *journal) LSN() uint64 { return j.store.LSN() }

// VertexLabels returns the live vertex-label dictionary.
func (j *journal) VertexLabels() *Dict { return j.store.VertexLabels() }

// EdgeLabels returns the live edge-label dictionary.
func (j *journal) EdgeLabels() *Dict { return j.store.EdgeLabels() }

// adoptDict merges the recovered dictionary names into the caller's
// dictionary (when one was supplied) and returns the dictionary the
// engine should use. Re-interning the recovered names in order must
// reproduce the recovered labels, otherwise the caller's labels and the
// persisted graph disagree.
func adoptDict(user, recovered *Dict, kind string) (*Dict, error) {
	if user == nil || user == recovered {
		return recovered, nil
	}
	for i := 0; i < recovered.Len(); i++ {
		name := recovered.Name(Label(i))
		if got := user.Intern(name); got != Label(i) {
			return nil, fmt.Errorf(
				"turboflux: %s label dictionary mismatch: recovered %q as label %d, caller has it as %d",
				kind, name, i, got)
		}
	}
	return user, nil
}

// InitialMatches reports every match present in the recovered graph
// through OnMatch and returns their count. Call it at most once, before
// streaming updates.
func (d *DurableEngine) InitialMatches() int64 { return d.eng.InitialMatches() }

// Insert journals an edge insertion and then applies it, returning the
// number of positive matches it produced.
func (d *DurableEngine) Insert(from VertexID, l Label, to VertexID) (int64, error) {
	if _, err := d.store.Append(Insert(from, l, to)); err != nil {
		return 0, err
	}
	return d.eng.Insert(from, l, to)
}

// Delete journals an edge deletion and then applies it, returning the
// number of negative matches it produced.
func (d *DurableEngine) Delete(from VertexID, l Label, to VertexID) (int64, error) {
	if _, err := d.store.Append(Delete(from, l, to)); err != nil {
		return 0, err
	}
	return d.eng.Delete(from, l, to)
}

// Apply journals one stream update and then applies it.
func (d *DurableEngine) Apply(u Update) (int64, error) {
	if _, err := d.store.Append(u); err != nil {
		return 0, err
	}
	return d.eng.Apply(u)
}

// ApplyAll journals and applies a batch of updates, returning the total
// match count.
func (d *DurableEngine) ApplyAll(ups []Update) (int64, error) {
	var total int64
	for _, u := range ups {
		n, err := d.Apply(u)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// ApplyBatch journals the whole batch as one log write, then applies and
// evaluates every update, aggregating per-update errors like
// Engine.ApplyBatch. A journaling failure aborts before any update is
// applied, preserving write-ahead order for the batch as a whole.
func (d *DurableEngine) ApplyBatch(ups []Update) (int64, error) {
	if _, _, err := d.store.AppendBatch(ups); err != nil {
		return 0, err
	}
	return d.eng.ApplyBatch(ups)
}

// Close syncs and closes the journal. The engine is unusable afterwards;
// reopen the directory with OpenDurable to resume.
func (d *DurableEngine) Close() error { return d.store.Close() }

// Graph returns the engine's data graph. Treat it as read-only.
func (d *DurableEngine) Graph() *Graph { return d.eng.Graph() }

// Explain renders the engine's execution plan for diagnostics.
func (d *DurableEngine) Explain() string { return d.eng.Explain() }

// Stats returns a snapshot of the engine's counters.
func (d *DurableEngine) Stats() Stats { return d.eng.Stats() }
