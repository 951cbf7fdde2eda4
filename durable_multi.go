package turboflux

import (
	"fmt"
	"io"
	"time"

	"turboflux/internal/durable"
)

// DurableMultiOptions configures OpenDurableMulti. The fields mirror
// DurableOptions minus the per-engine matching options: queries are
// registered dynamically with Register, each with its own Options.
type DurableMultiOptions struct {
	// Fsync is the WAL sync policy: "always", "interval" (default) or
	// "none"; see DurableOptions.
	Fsync string
	// FsyncInterval is the "interval" policy period (default 100ms).
	FsyncInterval time.Duration
	// SegmentSize rotates the log once the active segment reaches this
	// many bytes (default 4 MiB).
	SegmentSize int64

	// VertexLabels / EdgeLabels, when non-nil, become the store's label
	// dictionaries, with recovered names merged in exactly as for
	// OpenDurable.
	VertexLabels, EdgeLabels *Dict

	// Bootstrap is an optional initial-graph history, journaled and
	// applied only when the store is fresh.
	Bootstrap []Update
	// BootstrapFrom is Bootstrap in the text stream format, read a window
	// at a time and only when the store is fresh; see DurableOptions.
	BootstrapFrom io.Reader

	// FanOutWorkers sizes the multi-query fan-out worker pool (default
	// GOMAXPROCS; 1 runs every evaluation inline on the caller). See
	// MultiEngine.SetFanOutWorkers.
	FanOutWorkers int
}

// DurableMultiEngine is a MultiEngine whose update stream survives process
// crashes: every Apply/Insert/Delete is journaled to the write-ahead log
// before any registered query evaluates it. Query registrations themselves
// are not journaled — matches are recomputed from state, so after recovery
// the caller re-registers its standing queries (each Register rebuilds the
// query's DCG over the recovered graph) and matching resumes exactly where
// the surviving log prefix ends. This is the serving shape: the network
// server journals every accepted update before acking it, while clients
// own their query registrations.
//
// DurableMultiEngine is not safe for concurrent use, matching MultiEngine;
// the server serializes access through its engine-owner goroutine
// (machine-checked by turboflux-vet's actor-confinement analyzer).
//
//tf:actor-owned
type DurableMultiEngine struct {
	journal
	m *MultiEngine
}

// OpenDurableMulti opens (or creates) the durable store in dir, recovers
// the data graph from its newest valid snapshot plus the journaled tail,
// and wraps it in an empty MultiEngine ready for Register calls.
func OpenDurableMulti(dir string, opt DurableMultiOptions) (*DurableMultiEngine, error) {
	j, err := openStore(dir, opt)
	if err != nil {
		return nil, err
	}
	m := NewMultiEngine(j.store.Graph())
	m.SetFanOutWorkers(opt.FanOutWorkers)
	return &DurableMultiEngine{journal: j, m: m}, nil
}

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
	if _, err := d.store.Append(Insert(from, l, to)); err != nil {
		return nil, err
	}
	return d.m.Insert(from, l, to)
}

// Delete journals an edge deletion and then fans it out, returning
// per-query negative-match counts.
func (d *DurableMultiEngine) Delete(from VertexID, l Label, to VertexID) (map[string]int64, error) {
	if _, err := d.store.Append(Delete(from, l, to)); err != nil {
		return nil, err
	}
	return d.m.Delete(from, l, to)
}

// Apply journals one stream update and then fans it out.
func (d *DurableMultiEngine) Apply(u Update) (map[string]int64, error) {
	if _, err := d.store.Append(u); err != nil {
		return nil, err
	}
	return d.m.Apply(u)
}

// ApplyBatch journals the whole batch as one log write, then evaluates it
// through the window scheduler (MultiEngine.ApplyBatch). A journaling
// failure aborts before any update is applied.
func (d *DurableMultiEngine) ApplyBatch(ups []Update) (map[string]int64, error) {
	return d.ApplyBatchFunc(ups, nil)
}

// ApplyBatchFunc is ApplyBatch with MultiEngine.ApplyBatchFunc's
// per-update boundary hook.
func (d *DurableMultiEngine) ApplyBatchFunc(ups []Update, boundary func(i int)) (map[string]int64, error) {
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

// Stats returns a per-query snapshot of engine counters, keyed by name.
func (d *DurableMultiEngine) Stats() map[string]Stats { return d.m.Stats() }

// FanOutStats snapshots the fan-out counters.
func (d *DurableMultiEngine) FanOutStats() FanOutStats { return d.m.FanOutStats() }

// MQOStats snapshots the sub-pattern sharing counters.
func (d *DurableMultiEngine) MQOStats() MQOStats { return d.m.MQOStats() }
