// Package csm is the one contract of the paper's comparison: TurboFlux
// (internal/core) and the SJ-Tree, Graphflow and IncIsoMat baselines are
// each an Engine built from one Options, report through one MatchFunc and
// censor in one set of units — the shape of the CSM code's matching class
// and its main's --max-results and --time-limit (SNIPPETS.md).
package csm

import (
	"errors"
	"fmt"
	"time"

	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

// Engine is a continuous subgraph matcher over its own data graph. Apply
// applies one update and returns the matches it reported;
// IntermediateSizeBytes sizes its stored intermediate results under the
// paper's accounting.
type Engine interface {
	Apply(stream.Update) (int64, error)
	IntermediateSizeBytes() int64
}

// MatchFunc receives one positive (inserted) or negative (deleted) match:
// m[u] is the data vertex matched to query vertex u. The slice is reused
// across calls and must be copied if retained.
type MatchFunc func(positive bool, m []graph.VertexID)

// ErrCensored reports that an engine stopped early under one of Options'
// censors; ErrWorkBudget, ErrDeadline and ErrSizeCap wrap it with the cause.
var ErrCensored = errors.New("censored")

var (
	ErrWorkBudget = fmt.Errorf("%w: work budget", ErrCensored)
	ErrDeadline   = fmt.Errorf("%w: deadline", ErrCensored)
	ErrSizeCap    = fmt.Errorf("%w: size cap", ErrCensored)
)

// Options configures every engine of the comparison.
type Options struct {
	// Injective selects subgraph isomorphism; the default is homomorphism.
	Injective bool
	// OnMatch, when non-nil, receives every reported match.
	OnMatch MatchFunc
	// WorkBudget caps the matches one update reports (0 = unlimited). The
	// (WorkBudget+1)-th match stops the update's search, which returns the
	// WorkBudget matches it reported with ErrWorkBudget; stored state is
	// still brought up to date, so the next update is exact. Initial
	// matches of the graph an engine is built over are never capped.
	WorkBudget int64
	// Deadline stops construction or an update's search once the wall clock
	// passes it, with ErrDeadline (zero = none); searches read the clock
	// every Stride steps. A deadline-censored engine is spent.
	Deadline time.Time
	// SizeCap stops an engine whose IntermediateSizeBytes passes it, with
	// ErrSizeCap (0 = unlimited). A size-censored engine is spent.
	SizeCap int64
}

// Stride is how many search steps pass between two reads of the clock.
const Stride = 4096

// Timer checks a deadline once every Stride steps of a search.
type Timer struct {
	deadline time.Time
	steps    int
}

// NewTimer returns a Timer for deadline; a zero deadline never expires.
func NewTimer(deadline time.Time) Timer { return Timer{deadline: deadline} }

// Expired counts one search step and reports whether the deadline has
// passed, reading the clock only on every Stride-th step.
func (t *Timer) Expired() bool {
	if t.deadline.IsZero() {
		return false
	}
	if t.steps++; t.steps < Stride {
		return false
	}
	t.steps = 0
	return time.Now().After(t.deadline)
}
