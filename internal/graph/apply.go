package graph

import "slices"

// Applier streams mutations into a Graph with batch-amortized
// bookkeeping, the recovery-replay counterpart of the engine's batched
// evaluation pipeline (DESIGN.md §12). Compared to calling InsertEdge /
// DeleteEdge per update it:
//
//   - fuses the duplicate/existence probe with the mutation, so the
//     label bucket is located once per edge instead of twice;
//   - checks that the endpoints exist once, not once for the probe and
//     again for the mutation;
//   - defers the per-label edge counters and the global edge count into
//     scratch deltas merged once per Flush.
//
// The graph is fully consistent at every point except the counters
// returned by EdgeCount and NumEdges, which lag until Flush. Callers
// must Flush before handing the graph to any reader of those counters.
// An Applier is scratch, not state: create one per replay (or reuse it
// across batches of the same graph) and do not mix direct counter-
// touching mutations (InsertEdge/DeleteEdge) between Flushes.
type Applier struct {
	g *Graph

	edgeDelta []int   // per-label live-edge delta, indexed by Label
	touched   []Label // labels with a (possibly zero) recorded delta
	edges     int     // pending delta for g.numEdges
}

// NewApplier returns an Applier over g with empty pending deltas.
func NewApplier(g *Graph) *Applier { return &Applier{g: g} }

// bump records a per-label edge-count delta into the scratch array.
func (a *Applier) bump(l Label, d int) {
	if int(l) >= len(a.edgeDelta) {
		nd := make([]int, int(l)+1)
		copy(nd, a.edgeDelta)
		a.edgeDelta = nd
	}
	if a.edgeDelta[l] == 0 {
		a.touched = append(a.touched, l)
	}
	a.edgeDelta[l] += d
}

// InsertEdge adds edge (from, l, to), creating missing endpoints as
// unlabeled vertices, and reports whether the edge was newly inserted.
// Counter updates are deferred to Flush.
//
//tf:hotpath
func (a *Applier) InsertEdge(from VertexID, l Label, to VertexID) bool {
	a.g.EnsureVertex(from)
	a.g.EnsureVertex(to)
	fd, td := &a.g.verts[from], &a.g.verts[to] // taken after both exist: creating one may move the table
	bi, ti := fd.out.find(l), td.in.find(l)
	var out, in []VertexID
	if bi >= 0 {
		out = fd.out[bi].list
	}
	if ti >= 0 {
		in = td.in[ti].list
	}
	// Duplicate probe on the shorter mirror, as in Graph.HasEdge.
	if len(in) < len(out) {
		if slices.Contains(in, from) {
			return false
		}
	} else if slices.Contains(out, to) {
		return false
	}
	fd.out.addAt(bi, l, to)
	fd.outDeg++
	td.in.addAt(ti, l, from)
	td.inDeg++
	a.bump(l, 1)
	a.edges++
	return true
}

// DeleteEdge removes edge (from, l, to) and reports whether it existed.
// Counter updates are deferred to Flush; bucket compaction matches
// Graph.DeleteEdge.
//
//tf:hotpath
func (a *Applier) DeleteEdge(from VertexID, l Label, to VertexID) bool {
	g := a.g
	if !g.HasVertex(from) {
		return false
	}
	fd := &g.verts[from]
	if !fd.out.remove(l, to) {
		return false
	}
	fd.outDeg--
	td := &g.verts[to]
	td.in.remove(l, from)
	td.inDeg--
	a.bump(l, -1)
	a.edges--
	return true
}

// DeclareVertex creates v with the given labels if absent (the OpVertex
// rule: an existing vertex is left untouched) and reports whether it was
// created.
func (a *Applier) DeclareVertex(v VertexID, labels []Label) bool {
	if a.g.HasVertex(v) {
		return false
	}
	a.g.EnsureVertex(v, labels...)
	return true
}

// Flush merges the pending counter deltas into the graph. Cheap when
// nothing is pending, so callers flush once per batch unconditionally.
func (a *Applier) Flush() {
	g := a.g
	for _, l := range a.touched {
		if d := a.edgeDelta[l]; d != 0 {
			g.bumpEdgeCount(l, d)
			a.edgeDelta[l] = 0
		}
	}
	a.touched = a.touched[:0]
	g.numEdges += a.edges
	a.edges = 0
}
