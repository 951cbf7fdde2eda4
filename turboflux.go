// Package turboflux is a continuous subgraph matching system for streaming
// graph data, implementing Kim et al., "TurboFlux: A Fast Continuous
// Subgraph Matching System for Streaming Graph Data" (SIGMOD 2018).
//
// Given an initial data graph g0, a query graph q and a stream of edge
// insertions and deletions, an Engine reports the positive matches
// (M(g_i,q) − M(g_{i−1},q)) of every insertion and the negative matches of
// every deletion, under graph homomorphism (default) or subgraph
// isomorphism semantics. Internally the engine maintains the paper's
// data-centric graph (DCG), a compact intermediate-result index updated by
// the edge transition model, and answers each update by localized index
// maintenance plus a DCG-guided backtracking search.
//
// # Quick start
//
//	g := turboflux.NewGraph()
//	g.EnsureVertex(1, person)
//	g.InsertEdge(1, follows, 2)          // ... load g0
//
//	q := turboflux.NewQuery(3)           // u0 -follows-> u1 -follows-> u2
//	q.SetLabels(0, person)
//	q.AddEdge(0, follows, 1)
//	q.AddEdge(1, follows, 2)
//
//	eng, _ := turboflux.NewEngine(g, q, turboflux.Options{
//		OnMatch: func(positive bool, m []turboflux.VertexID) {
//			fmt.Println(positive, m)
//		},
//	})
//	eng.Insert(2, follows, 3)            // reports new matches immediately
//
// After NewEngine the engine owns the data graph: route every mutation
// through Engine.Insert / Engine.Delete / Engine.Apply.
package turboflux

import (
	"errors"
	"fmt"
	"io"

	"turboflux/internal/core"
	"turboflux/internal/graph"
	"turboflux/internal/qlang"
	"turboflux/internal/query"
	"turboflux/internal/stream"
)

// Re-exported substrate types. These aliases are the supported public
// names; the internal packages are implementation detail.
type (
	// VertexID identifies a data or query vertex.
	VertexID = graph.VertexID
	// Label is an interned vertex or edge label.
	Label = graph.Label
	// Edge is a directed labeled edge.
	Edge = graph.Edge
	// Graph is the dynamic labeled data graph.
	Graph = graph.Graph
	// Dict interns label names.
	Dict = graph.Dict
	// Query is a query graph.
	Query = query.Graph
	// Update is one stream operation.
	Update = stream.Update
)

// NoVertex is the sentinel "no vertex" value.
const NoVertex = graph.NoVertex

// NewGraph returns an empty data graph.
func NewGraph() *Graph { return graph.New() }

// NewDict returns an empty label dictionary.
func NewDict() *Dict { return graph.NewDict() }

// NewQuery returns a query graph with n vertices (0 .. n-1).
func NewQuery(n int) *Query { return query.NewGraph(n) }

// ParseQuery compiles a Cypher-like pattern into a query graph:
//
//	q, names, err := turboflux.ParseQuery(
//	    "MATCH (a:Person)-[:follows]->(b:Person), (b)-[:likes]->(p:Post)",
//	    vertexDict, edgeDict)
//
// names maps pattern node names to query vertex IDs. Vertex and edge
// labels are interned through the supplied dictionaries, so patterns and
// data loaded through the same dictionaries agree on label values.
func ParseQuery(src string, vertexLabels, edgeLabels *Dict) (*Query, map[string]VertexID, error) {
	return qlang.Parse(src, vertexLabels, edgeLabels)
}

// Insert returns an edge-insertion update.
func Insert(from VertexID, l Label, to VertexID) Update { return stream.Insert(from, l, to) }

// Delete returns an edge-deletion update.
func Delete(from VertexID, l Label, to VertexID) Update { return stream.Delete(from, l, to) }

// DeclareVertex returns a vertex-declaration update.
func DeclareVertex(v VertexID, labels ...Label) Update {
	return stream.DeclareVertex(v, labels...)
}

// DecodeStream reads updates in the text stream format.
func DecodeStream(r io.Reader) ([]Update, error) { return stream.Decode(r) }

// EncodeStream writes updates in the text stream format.
func EncodeStream(w io.Writer, ups []Update) error { return stream.Encode(w, ups) }

// Semantics selects the matching semantics.
type Semantics = core.Semantics

const (
	// Homomorphism: L(u) ⊆ L(m(u)), edges preserved, mapping not
	// necessarily injective (the paper's default).
	Homomorphism = core.Homomorphism
	// Isomorphism additionally requires an injective vertex mapping.
	Isomorphism = core.Isomorphism
)

// Options configures an Engine.
type Options struct {
	// Semantics selects homomorphism (default) or isomorphism.
	Semantics Semantics
	// OnMatch, when non-nil, receives every positive and negative match.
	// The mapping slice (query vertex -> data vertex) is reused across
	// calls; copy it if retained.
	OnMatch func(positive bool, mapping []VertexID)
	// WorkBudget caps the work units (search and maintenance steps) spent
	// on a single update; when exceeded the update aborts with
	// ErrWorkBudget and its match reporting is incomplete. The abort rolls
	// nothing back: maintenance stops partway, so the DCG can be left short
	// of the fixpoint of the graph for later updates (see
	// MultiEngine.Apply and ROADMAP item 8). 0 means unlimited.
	WorkBudget int64
}

// ErrWorkBudget reports that an update exceeded Options.WorkBudget and was
// aborted. Test with errors.Is; MultiEngine wraps it with the offending
// query's name.
var ErrWorkBudget = core.ErrWorkBudget

// Engine is a continuous subgraph matching instance. It is not safe for
// concurrent use; concurrent callers must serialize access, as the
// network server does through its engine-owner goroutine
// (machine-checked by turboflux-vet's actor-confinement analyzer).
//
//tf:actor-owned
type Engine struct {
	inner *core.Engine
}

// NewEngine builds a TurboFlux engine over initial graph g0 and query q:
// it selects the starting query vertex, converts q to a query tree, builds
// the initial DCG and derives the matching order. The engine takes
// ownership of g0.
func NewEngine(g0 *Graph, q *Query, opt Options) (*Engine, error) {
	copt := core.DefaultOptions()
	copt.Semantics = opt.Semantics
	copt.OnMatch = opt.OnMatch
	copt.WorkBudget = opt.WorkBudget
	inner, err := core.New(g0, q, copt)
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner}, nil
}

// InitialMatches reports every match already present in the initial graph
// through OnMatch and returns their count. Call it at most once, before
// streaming updates.
func (e *Engine) InitialMatches() int64 { return e.inner.InitialMatches() }

// Insert applies an edge insertion and returns the number of positive
// matches it produced. Duplicate insertions are no-ops.
func (e *Engine) Insert(from VertexID, l Label, to VertexID) (int64, error) {
	return e.inner.InsertEdge(from, l, to)
}

// Delete applies an edge deletion and returns the number of negative
// matches it produced. Deleting an absent edge is a no-op.
func (e *Engine) Delete(from VertexID, l Label, to VertexID) (int64, error) {
	return e.inner.DeleteEdge(from, l, to)
}

// Apply applies one stream update.
func (e *Engine) Apply(u Update) (int64, error) { return e.inner.Apply(u) }

// ApplyBatch applies a whole batch of updates and returns the total
// match count. It evaluates every update even when some fail: per-update
// errors are wrapped as `update i` and aggregated with errors.Join, so a
// work-budget abort on one update does not silently drop the rest of the
// batch. Match reporting order is identical to applying the updates one
// at a time.
func (e *Engine) ApplyBatch(ups []Update) (int64, error) {
	var total int64
	var errs []error
	for i, u := range ups {
		n, err := e.Apply(u)
		total += n
		if err != nil {
			errs = append(errs, fmt.Errorf("update %d: %w", i, err)) //tf:alloc-ok error path
		}
	}
	return total, errors.Join(errs...)
}

// Graph returns the engine's data graph. Treat it as read-only.
func (e *Engine) Graph() *Graph { return e.inner.Graph() }

// Stats is a snapshot of engine counters.
type Stats struct {
	// PositiveMatches and NegativeMatches count matches reported for
	// stream updates (InitialMatches excluded).
	PositiveMatches int64
	NegativeMatches int64
	// DCGEdges is the number of stored intermediate-result edges.
	DCGEdges int
	// IntermediateBytes is the accounting size of the DCG: the paper's
	// 16 B per stored edge, for intermediate-result comparisons.
	IntermediateBytes int64
	// HeldBytes is the heap the DCG actually holds (its vertex blocks, role
	// classes and list arenas). Queries that share a DCG each report the
	// whole of it.
	HeldBytes int64
}

// Explain renders the engine's execution plan — starting vertex, query
// tree, non-tree edges, matching order with per-label explicit-path
// counts, and DCG occupancy — for diagnostics.
func (e *Engine) Explain() string { return e.inner.Plan().String() }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		PositiveMatches:   e.inner.PositiveCount(),
		NegativeMatches:   e.inner.NegativeCount(),
		DCGEdges:          e.inner.DCG().NumEdges(),
		IntermediateBytes: e.inner.IntermediateSizeBytes(),
		HeldBytes:         e.inner.DCG().HeldBytes(),
	}
}
