package turboflux

import (
	"errors"
	"fmt"
	"io"
	"time"

	"turboflux/internal/durable"
	"turboflux/internal/stream"
)

// DurableMultiOptions configures OpenDurableMulti: the write-ahead store
// and its bootstrap. Queries are registered dynamically with Register, each
// with its own Options.
type DurableMultiOptions struct {
	// Fsync is the WAL sync policy: "always" (sync per update), "interval"
	// (default: sync at most once per FsyncInterval) or "none" (sync only on
	// Sync/Close).
	Fsync string
	// FsyncInterval is the "interval" policy period (default 100ms).
	FsyncInterval time.Duration
	// SegmentSize rotates the log once the active segment reaches this
	// many bytes (default 4 MiB).
	SegmentSize int64

	// VertexLabels / EdgeLabels, when non-nil, become the store's label
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

	// FanOutWorkers sizes the multi-query fan-out worker pool (default
	// GOMAXPROCS; 1 runs every evaluation inline on the caller). See
	// MultiEngine.SetFanOutWorkers.
	FanOutWorkers int
}

// RecoveryInfo describes what OpenDurableMulti found on disk.
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

// DurableMultiEngine is a MultiEngine whose update stream survives process
// crashes: every Apply/Insert/Delete is journaled to a checksummed
// write-ahead log before any registered query evaluates it, and Compact
// writes an atomic snapshot of the data graph and label dictionaries.
// Query registrations themselves are not journaled — matches are
// recomputed from state, so after recovery the caller re-registers its
// standing queries (each Register rebuilds the query's DCG over the
// recovered graph) and matching resumes exactly where the surviving log
// prefix ends. A recovered engine reports the same matches for the same
// subsequent updates as one that never crashed (see
// TestDurableTranscriptEquivalence). This is the serving shape: the
// network server journals every accepted update before acking it, while
// clients own their query registrations. A single durable query is one
// registration.
//
// DurableMultiEngine is not safe for concurrent use, matching MultiEngine;
// the server serializes access through its engine-owner goroutine
// (machine-checked by turboflux-vet's actor-confinement analyzer).
//
//tf:actor-owned
type DurableMultiEngine struct {
	store *durable.Store
	rec   RecoveryInfo
	m     *MultiEngine
}

// bootstrapWindow is how many bootstrap records OpenDurableMulti journals
// per write.
const bootstrapWindow = 4096

// OpenDurableMulti opens (or creates) the durable store in dir, merges the
// recovered label dictionaries into the caller's, journals and applies the
// bootstrap history when the store is fresh, and wraps the recovered data
// graph (newest valid snapshot plus the journaled tail) in an empty
// MultiEngine ready for Register calls.
func OpenDurableMulti(dir string, opt DurableMultiOptions) (*DurableMultiEngine, error) {
	if opt.Bootstrap != nil && opt.BootstrapFrom != nil {
		return nil, errors.New("turboflux: set Bootstrap or BootstrapFrom, not both")
	}
	pol, err := durable.ParsePolicy(opt.Fsync)
	if err != nil {
		return nil, err
	}
	st, err := durable.Open(dir, durable.Options{
		Fsync:        pol,
		FsyncEvery:   opt.FsyncInterval,
		SegmentSize:  opt.SegmentSize,
		VertexLabels: opt.VertexLabels,
		EdgeLabels:   opt.EdgeLabels,
	})
	if err != nil {
		return nil, err
	}
	vd, err := adoptDict(opt.VertexLabels, st.VertexLabels(), "vertex")
	if err != nil {
		st.Close() //tf:unchecked-ok already failing
		return nil, err
	}
	ed, err := adoptDict(opt.EdgeLabels, st.EdgeLabels(), "edge")
	if err != nil {
		st.Close() //tf:unchecked-ok already failing
		return nil, err
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
			return nil, err
		}
	}
	m := NewMultiEngine(st.Graph())
	m.SetFanOutWorkers(opt.FanOutWorkers)
	return &DurableMultiEngine{store: st, m: m, rec: RecoveryInfo{
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
		return stream.LoadWindows(opt.BootstrapFrom, bootstrapWindow, fn)
	}
	if err := stream.CheckAll(opt.Bootstrap); err != nil {
		return fmt.Errorf("turboflux: bootstrap %w", err)
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

// Recovery returns what opening the store found on disk.
func (d *DurableMultiEngine) Recovery() RecoveryInfo { return d.rec }

// Compact writes a fresh snapshot covering the whole journaled history
// and drops the log segments it makes obsolete, bounding both recovery
// time and disk usage.
func (d *DurableMultiEngine) Compact() error { return d.store.Compact() }

// Sync forces journaled updates to stable storage regardless of the
// fsync policy.
func (d *DurableMultiEngine) Sync() error { return d.store.Sync() }

// LSN returns the log position of the last journaled update.
func (d *DurableMultiEngine) LSN() uint64 { return d.store.LSN() }

// VertexLabels returns the live vertex-label dictionary.
func (d *DurableMultiEngine) VertexLabels() *Dict { return d.store.VertexLabels() }

// EdgeLabels returns the live edge-label dictionary.
func (d *DurableMultiEngine) EdgeLabels() *Dict { return d.store.EdgeLabels() }

// Register adds a continuous query under the given name, building its DCG
// over the current (recovered) graph state. Registrations are not
// journaled; re-register after reopening the store.
func (d *DurableMultiEngine) Register(name string, q *Query, opt Options) error {
	return d.m.Register(name, q, opt)
}

// Unregister removes a query and reports whether it was registered.
func (d *DurableMultiEngine) Unregister(name string) bool { return d.m.Unregister(name) }

// Queries returns the registered query names in registration order.
func (d *DurableMultiEngine) Queries() []string { return d.m.Queries() }

// InitialMatches reports each registered query's matches over the current
// graph and returns per-query counts.
func (d *DurableMultiEngine) InitialMatches() map[string]int64 { return d.m.InitialMatches() }

// Insert journals an edge insertion and then fans it out to every
// registered query, returning per-query positive-match counts.
func (d *DurableMultiEngine) Insert(from VertexID, l Label, to VertexID) (map[string]int64, error) {
	return d.Apply(Insert(from, l, to))
}

// Delete journals an edge deletion and then fans it out, returning
// per-query negative-match counts.
func (d *DurableMultiEngine) Delete(from VertexID, l Label, to VertexID) (map[string]int64, error) {
	return d.Apply(Delete(from, l, to))
}

// Apply journals one stream update and then fans it out. An update naming
// a vertex ID past 2^28 − 1 is refused before it is journaled.
func (d *DurableMultiEngine) Apply(u Update) (map[string]int64, error) {
	if err := stream.CheckIDs(u); err != nil {
		return nil, err
	}
	if _, err := d.store.Append(u); err != nil {
		return nil, err
	}
	return d.m.Apply(u)
}

// ApplyBatch journals the whole batch as one log write, then evaluates it
// through the window scheduler (MultiEngine.ApplyBatch). A journaling
// failure, or an update naming a vertex ID past 2^28 − 1, aborts
// before any update is journaled or applied.
func (d *DurableMultiEngine) ApplyBatch(ups []Update) (map[string]int64, error) {
	return d.ApplyBatchFunc(ups, nil)
}

// ApplyBatchFunc is ApplyBatch with MultiEngine.ApplyBatchFunc's
// per-update boundary hook.
func (d *DurableMultiEngine) ApplyBatchFunc(ups []Update, boundary func(i int)) (map[string]int64, error) {
	if err := stream.CheckAll(ups); err != nil {
		return nil, err
	}
	if _, _, err := d.store.AppendBatch(ups); err != nil {
		return nil, err
	}
	return d.m.ApplyBatchFunc(ups, boundary)
}

// Close releases the fan-out worker pool, then syncs and closes the
// journal. The engine is unusable afterwards; reopen the directory with
// OpenDurableMulti to resume.
func (d *DurableMultiEngine) Close() error {
	d.m.Close() //tf:unchecked-ok pool release never fails
	return d.store.Close()
}

// Store exposes the underlying durable store for replication plumbing
// (append taps, catch-up plans, snapshot access). Callers must respect
// the engine's single-threaded discipline.
func (d *DurableMultiEngine) Store() *durable.Store { return d.store }

// Reseed adopts a leader snapshot as this engine's entire state: the
// store re-points to the snapshot's graph and dictionaries (persisting
// the snapshot so restarts recover from it) and the MultiEngine is
// rebuilt over the new graph. Only a fresh engine may be reseeded — the
// store must hold no journaled history and no query may be registered,
// since registrations would silently lose their DCGs in the swap.
func (d *DurableMultiEngine) Reseed(data []byte) error {
	if n := len(d.m.Queries()); n > 0 {
		return fmt.Errorf("turboflux: cannot reseed with %d registered queries; register queries after seeding", n)
	}
	if err := d.store.SeedFromSnapshot(data); err != nil {
		return err
	}
	workers := d.m.FanOutWorkers()
	d.m.Close() //tf:unchecked-ok pool release never fails
	m := NewMultiEngine(d.store.Graph())
	m.SetFanOutWorkers(workers)
	d.m = m
	return nil
}

// Graph returns the shared data graph. Treat it as read-only.
func (d *DurableMultiEngine) Graph() *Graph { return d.m.Graph() }

// Explain renders the named query's execution plan; see
// MultiEngine.Explain.
func (d *DurableMultiEngine) Explain(name string) string { return d.m.Explain(name) }

// Stats returns a per-query snapshot of engine counters, keyed by name.
func (d *DurableMultiEngine) Stats() map[string]Stats { return d.m.Stats() }

// FanOutStats snapshots the fan-out counters.
func (d *DurableMultiEngine) FanOutStats() FanOutStats { return d.m.FanOutStats() }

// MQOStats snapshots the sub-pattern sharing counters.
func (d *DurableMultiEngine) MQOStats() MQOStats { return d.m.MQOStats() }
