package turboflux

import (
	"errors"
	"fmt"
	"io"

	"turboflux/internal/durable"
	"turboflux/internal/stream"
)

// DurableMultiOptions configures OpenDurableMulti: the write-ahead store
// and its bootstrap. Queries are registered dynamically with Register, each
// with its own Options.
type DurableMultiOptions struct {
	// Fsync is the WAL sync policy: "always" (sync per update), "interval"
	// (default: sync at most once per 100 ms) or "none" (sync only on
	// Sync/Close).
	Fsync string
	// SegmentSize rotates the log once the active segment reaches this
	// many bytes (default 4 MiB).
	SegmentSize int64

	// VertexLabels / EdgeLabels, when non-nil, become the engine's live
	// label dictionaries. On a fresh store they are adopted as-is; on
	// recovery the snapshot's names are re-interned into them first and
	// must agree with any labels already interned (so patterns parsed
	// through them keep meaning the same labels across restarts).
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

// bootstrapWindow is how many bootstrap records OpenDurableMulti journals
// per write.
const bootstrapWindow = 4096

// OpenDurableMulti opens (or creates) the durable store in dir, journals
// and applies the bootstrap history when the store is fresh, and wraps the
// recovered data graph (newest valid snapshot plus the journaled tail) in
// an empty MultiEngine ready for Register calls.
//
// The engine journals: every Apply, Insert, Delete and ApplyBatch is
// written to a checksummed write-ahead log before any registered query
// evaluates it, and Compact writes an atomic snapshot of the data graph
// and label dictionaries. Query registrations are not journaled — matches
// are recomputed from state, so after recovery the caller re-registers
// its standing queries (each Register rebuilds the query's DCG over the
// recovered graph) and matching resumes exactly where the surviving log
// prefix ends. A recovered engine reports the same matches for the same
// subsequent updates as one that never crashed (see
// TestDurableTranscriptEquivalence). This is the serving shape: the
// network server journals every accepted update before acking it, while
// clients own their query registrations.
func OpenDurableMulti(dir string, opt DurableMultiOptions) (*MultiEngine, error) {
	if opt.Bootstrap != nil && opt.BootstrapFrom != nil {
		return nil, errors.New("turboflux: set Bootstrap or BootstrapFrom, not both")
	}
	pol, err := durable.ParsePolicy(opt.Fsync)
	if err != nil {
		return nil, err
	}
	st, err := durable.Open(dir, durable.Options{
		Fsync:        pol,
		SegmentSize:  opt.SegmentSize,
		VertexLabels: opt.VertexLabels,
		EdgeLabels:   opt.EdgeLabels,
	})
	if err != nil {
		return nil, err
	}
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
	m.store = st
	m.rec = RecoveryInfo{
		SnapshotLSN:    rec.SnapshotLSN,
		Replayed:       rec.Replayed,
		TruncatedBytes: rec.TruncatedBytes,
		Fresh:          rec.Fresh,
	}
	return m, nil
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

// errNotDurable is what the journal's methods return on an engine built by
// NewMultiEngine, which has no journal.
var errNotDurable = errors.New("turboflux: not a durable engine (open one with OpenDurableMulti)")

// Recovery returns what OpenDurableMulti found on disk; the zero value on
// an engine built by NewMultiEngine.
func (m *MultiEngine) Recovery() RecoveryInfo { return m.rec }

// Compact writes a fresh snapshot covering the whole journaled history
// and drops the log segments it makes obsolete, bounding both recovery
// time and disk usage.
func (m *MultiEngine) Compact() error {
	if m.store == nil {
		return errNotDurable
	}
	return m.store.Compact()
}

// Sync forces journaled updates to stable storage regardless of the
// fsync policy.
func (m *MultiEngine) Sync() error {
	if m.store == nil {
		return errNotDurable
	}
	return m.store.Sync()
}

// LSN returns the log position of the last journaled update; 0 on an
// engine built by NewMultiEngine.
func (m *MultiEngine) LSN() uint64 {
	if m.store == nil {
		return 0
	}
	return m.store.LSN()
}

// VertexLabels returns the journal's live vertex-label dictionary; nil on
// an engine built by NewMultiEngine.
func (m *MultiEngine) VertexLabels() *Dict {
	if m.store == nil {
		return nil
	}
	return m.store.VertexLabels()
}

// EdgeLabels returns the journal's live edge-label dictionary; nil on an
// engine built by NewMultiEngine.
func (m *MultiEngine) EdgeLabels() *Dict {
	if m.store == nil {
		return nil
	}
	return m.store.EdgeLabels()
}

// Store exposes the durable store for replication plumbing (append taps,
// catch-up plans, snapshot access); nil on an engine built by
// NewMultiEngine. Callers must respect the engine's single-threaded
// discipline.
func (m *MultiEngine) Store() *durable.Store { return m.store }

// Reseed adopts a leader snapshot as this engine's entire state: the
// store re-points to the snapshot's graph and dictionaries (persisting
// the snapshot so restarts recover from it) and the engine evaluates over
// the new graph from then on. Only a fresh durable engine may be reseeded
// — the store must hold no journaled history and no query may be
// registered, since registrations would silently lose their DCGs in the
// swap.
func (m *MultiEngine) Reseed(data []byte) error {
	if m.store == nil {
		return errNotDurable
	}
	if n := len(m.order); n > 0 {
		return fmt.Errorf("turboflux: cannot reseed with %d registered queries; register queries after seeding", n)
	}
	if err := m.store.SeedFromSnapshot(data); err != nil {
		return err
	}
	m.g = m.store.Graph()
	return nil
}
