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

// ContinuousEngine is the uniform driver interface every engine satisfies.
type ContinuousEngine interface {
	Apply(stream.Update) (int64, error)
	IntermediateSizeBytes() int64
}

// EngineOptions tweak engine construction for ablation experiments and
// per-update censoring.
type EngineOptions struct {
	Injective            bool
	DisableCheckAndAvoid bool
	DisableOrderAdjust   bool
	NaiveEL              bool
	// WCOSearch switches TurboFlux to the worst-case-optimal search
	// strategy over the DCG (Section 4.3 sketch).
	WCOSearch bool
	// WorkBudget censors non-selective queries per update (0 = unlimited):
	// TurboFlux counts reported matches and never stops maintenance;
	// Graphflow and IncIsoMat count their own search steps.
	WorkBudget int64
	// TupleCap bounds SJ-Tree's total materialized tuples (0 = unlimited).
	TupleCap int64
	// Deadline censors SJ-Tree construction/replay by wall clock; RunQuery
	// derives it from RunConfig.Timeout.
	Deadline time.Time
}

// NewEngine builds an engine of the given kind over a private clone of g0.
func NewEngine(kind Kind, g0 *graph.Graph, q *query.Graph, opt EngineOptions) (ContinuousEngine, error) {
	g := g0.Clone()
	switch kind {
	case TurboFlux:
		copt := core.DefaultOptions()
		if opt.Injective {
			copt.Semantics = core.Isomorphism
		}
		copt.DisableCheckAndAvoid = opt.DisableCheckAndAvoid
		copt.DisableOrderAdjust = opt.DisableOrderAdjust
		copt.NaiveEL = opt.NaiveEL
		copt.WorkBudget = opt.WorkBudget
		if opt.WCOSearch {
			copt.Search = core.WCOJoin
		}
		return core.New(g, q, copt)
	case SJTree:
		return sjtree.New(g, q, sjtree.Options{
			Injective: opt.Injective,
			TupleCap:  opt.TupleCap,
			Deadline:  opt.Deadline,
		})
	case Graphflow:
		return graphflow.New(g, q, graphflow.Options{Injective: opt.Injective, WorkBudget: opt.WorkBudget})
	case IncIsoMat:
		return incisomat.New(g, q, incisomat.Options{Injective: opt.Injective, WorkBudget: opt.WorkBudget})
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
	// SizeCap censors a query whose engine materializes more intermediate
	// state than this many bytes (keeps SJ-Tree blow-ups from exhausting
	// memory); 0 disables.
	SizeCap int64
	// Stream overrides the dataset stream (e.g. a rate-limited prefix).
	Stream []stream.Update
	// Latency, when non-nil, records per-operation durations (adds one
	// clock read per update).
	Latency *stats.Latency
	Engine  EngineOptions
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
	deadline := time.Time{}
	if cfg.Timeout > 0 {
		deadline = start.Add(cfg.Timeout)
		eopt.Deadline = deadline
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
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.TimedOut = true
			break
		}
		if i%checkEvery == 0 {
			if sz := eng.IntermediateSizeBytes(); sz > res.PeakSize {
				res.PeakSize = sz
			}
			if cfg.SizeCap > 0 && eng.IntermediateSizeBytes() > cfg.SizeCap {
				res.TimedOut = true
				break
			}
		}
	}
	res.Cost = time.Since(loopStart)
	if sz := eng.IntermediateSizeBytes(); sz > res.PeakSize {
		res.PeakSize = sz
	}
	return res
}

// RunSet replays the stream for every query on one engine and aggregates.
func RunSet(kind Kind, ds *workload.Dataset, qs []*query.Graph, cfg RunConfig) *stats.Summary {
	var s stats.Summary
	for _, q := range qs {
		r := RunQuery(kind, ds, q, cfg)
		if r.TimedOut {
			s.AddTimeout()
			continue
		}
		s.AddQuery(r.Cost, r.PeakSize, r.Matches)
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
