// Package harness drives the paper's experiments: it instantiates each
// continuous-matching engine on a generated dataset, replays the update
// stream per query under a timeout, and prints the table/series each
// figure of the evaluation section reports (see the per-experiment index
// in DESIGN.md §5).
package harness

import (
	"errors"
	"fmt"
	"io"
	"time"

	"turboflux/internal/core"
	"turboflux/internal/csm"
	"turboflux/internal/graph"
	"turboflux/internal/graphflow"
	"turboflux/internal/incisomat"
	"turboflux/internal/query"
	"turboflux/internal/sjtree"
	"turboflux/internal/stats"
	"turboflux/internal/stream"
	"turboflux/internal/workload"
)

// Kind selects a continuous matching engine.
type Kind int

const (
	// TurboFlux is this repository's core engine.
	TurboFlux Kind = iota
	// SJTree is the materialized-join baseline (insert-only).
	SJTree
	// Graphflow is the stateless delta-join baseline.
	Graphflow
	// IncIsoMat is the repeated-search baseline.
	IncIsoMat
)

// String returns the engine's display name.
func (k Kind) String() string {
	switch k {
	case TurboFlux:
		return "TurboFlux"
	case SJTree:
		return "SJ-Tree"
	case Graphflow:
		return "Graphflow"
	case IncIsoMat:
		return "IncIsoMat"
	default:
		return "?"
	}
}

// NewEngine builds an engine of the given kind over a private clone of g0.
// TurboFlux honours WorkBudget itself and leaves Deadline and SizeCap to
// RunQuery's checks between updates.
func NewEngine(kind Kind, g0 *graph.Graph, q *query.Graph, opt csm.Options) (csm.Engine, error) {
	g := g0.Clone()
	switch kind {
	case TurboFlux:
		copt := core.DefaultOptions()
		if opt.Injective {
			copt.Semantics = core.Isomorphism
		}
		copt.OnMatch = core.MatchFunc(opt.OnMatch)
		copt.WorkBudget = opt.WorkBudget
		return core.New(g, q, copt)
	case SJTree:
		return sjtree.New(g, q, opt)
	case Graphflow:
		return graphflow.New(g, q, opt)
	case IncIsoMat:
		return incisomat.New(g, q, opt)
	default:
		return nil, fmt.Errorf("harness: unknown engine kind %d", kind)
	}
}

// Result is the outcome of replaying one query's stream on one engine.
type Result struct {
	Cost     time.Duration // cost(M(Δg,q)): total matching time over the stream
	Ops      int           // update operations applied
	Matches  int64         // positive + negative matches reported
	PeakSize int64         // peak intermediate-result size observed (bytes)
	TimedOut bool          // censored at Timeout or SizeCap
}

// RunConfig bounds one query run.
type RunConfig struct {
	// Timeout censors a query whose stream replay exceeds it (the paper
	// uses 2 hours at cluster scale; defaults here are laptop-scale).
	Timeout time.Duration
	// Stream overrides the dataset stream (e.g. a rate-limited prefix).
	Stream []stream.Update
	// Latency, when non-nil, records per-operation durations (adds one
	// clock read per update).
	Latency *stats.Latency
	Engine  csm.Options
}

// checkEvery is how many operations pass between timeout/size checks.
const checkEvery = 64

// RunQuery builds engine kind on ds and replays the stream, measuring only
// the Apply calls. Engines that reject an operation type (SJ-Tree on
// deletions) have those operations skipped, matching the paper's setup
// where SJ-Tree is excluded from deletion experiments.
func RunQuery(kind Kind, ds *workload.Dataset, q *query.Graph, cfg RunConfig) Result {
	ups := cfg.Stream
	if ups == nil {
		ups = ds.Stream
	}
	eopt := cfg.Engine
	start := time.Now()
	if cfg.Timeout > 0 {
		eopt.Deadline = start.Add(cfg.Timeout)
	}
	eng, err := NewEngine(kind, ds.Graph, q, eopt)
	if err != nil {
		return Result{TimedOut: true, Cost: time.Since(start)}
	}
	var res Result
	// cost(M(Δg,q)) covers stream processing only; the initial build is
	// excluded (the paper separates g0 loading from Δg processing) but
	// still counts against the wall-clock deadline above.
	loopStart := time.Now()
	for i, u := range ups {
		var opStart time.Time
		if cfg.Latency != nil {
			opStart = time.Now()
		}
		n, err := eng.Apply(u)
		if cfg.Latency != nil {
			cfg.Latency.Observe(time.Since(opStart))
		}
		if err != nil && !errors.Is(err, sjtree.ErrDeletionUnsupported) {
			res.TimedOut = true
			break
		}
		res.Matches += n
		res.Ops++
		// The deadline is checked every op: a single update can take
		// seconds on censor-worthy queries. Size sampling stays coarse.
		if !eopt.Deadline.IsZero() && time.Now().After(eopt.Deadline) {
			res.TimedOut = true
			break
		}
		if i%checkEvery == 0 {
			sz := eng.IntermediateSizeBytes()
			res.PeakSize = max(res.PeakSize, sz)
			if eopt.SizeCap > 0 && sz > eopt.SizeCap {
				res.TimedOut = true
				break
			}
		}
	}
	res.Cost = time.Since(loopStart)
	res.PeakSize = max(res.PeakSize, eng.IntermediateSizeBytes())
	return res
}

// RunSet replays the stream for every query on one engine and aggregates.
func RunSet(kind Kind, ds *workload.Dataset, qs []*query.Graph, cfg RunConfig) *stats.Summary {
	var s stats.Summary
	for i, q := range qs {
		r := RunQuery(kind, ds, q, cfg)
		if r.TimedOut {
			s.AddTimeout()
			continue
		}
		s.AddQuery(i, r.Cost, r.PeakSize, r.Matches)
	}
	return &s
}

// Row prints one result row: label, then per-engine mean cost, and
// optionally mean intermediate size.
func Row(w io.Writer, label string, sums map[Kind]*stats.Summary, kinds []Kind, withSize bool) {
	fmt.Fprintf(w, "%-14s", label)
	for _, k := range kinds {
		s := sums[k]
		if s == nil || len(s.Costs) == 0 {
			fmt.Fprintf(w, " %14s", "timeout")
			continue
		}
		cell := stats.FormatDuration(s.MeanCost())
		if s.Timeouts > 0 {
			cell += fmt.Sprintf("(%dT)", s.Timeouts)
		}
		fmt.Fprintf(w, " %14s", cell)
	}
	if withSize {
		for _, k := range kinds {
			s := sums[k]
			if s == nil || len(s.Sizes) == 0 {
				fmt.Fprintf(w, " %12s", "-")
				continue
			}
			fmt.Fprintf(w, " %12s", stats.FormatBytes(s.MeanSize()))
		}
	}
	fmt.Fprintln(w)
}

// Header prints the table header for Row output.
func Header(w io.Writer, first string, kinds []Kind, withSize bool) {
	fmt.Fprintf(w, "%-14s", first)
	for _, k := range kinds {
		fmt.Fprintf(w, " %14s", k)
	}
	if withSize {
		for _, k := range kinds {
			fmt.Fprintf(w, " %12s", k.String()+" sz")
		}
	}
	fmt.Fprintln(w)
}
