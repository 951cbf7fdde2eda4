// Package graph implements the dynamic labeled directed multigraph that
// TurboFlux and all baseline engines operate on.
//
// The graph stores a set of vertices, each carrying a fixed set of vertex
// labels, and a set of directed edges (from, label, to). Edges live only in
// the per-vertex, per-label adjacency buckets — duplicate detection, HasEdge
// and deletion scan the from-side bucket for the edge's label, so insertion
// and deletion are O(deg_l) on that bucket (short for the paper's workloads)
// with no global edge index to hash into on the update hot path. Adjacency
// is indexed per edge label in both directions so that engines can
// enumerate out- or in-neighbors reachable through a specific label without
// scanning.
//
// Data layout (DESIGN.md §16): every hot-path structure is a dense slice.
// Vertex records are stored by value in one table; a vertex's label set
// is an index into a table of interned sets (streams have a handful of
// distinct ones). Per-vertex adjacency is label-bucketed — a short array
// of (label, neighbor-slice) buckets scanned linearly, since a vertex
// touches few distinct edge labels — and the per-label vertex index and
// edge counters are flat slices indexed by the interned Label. No hash map
// is touched anywhere on the insert/delete/enumerate path (declaring a
// vertex looks its label set up in one), and iteration order is
// deterministic (a property the emission-determinism contract leans on;
// Go map iteration is randomized by design).
//
// Vertex labels are fixed once the vertex is created: this matches the RDF
// datasets used by the paper (LSBench, Netflow), where the type of an entity
// never changes while edges stream in and out.
package graph

import (
	"fmt"
	"maps"
	"slices"
)

// VertexID identifies a data or query vertex. IDs are dense small integers
// assigned by the caller (workload generators allocate them sequentially).
type VertexID uint32

// NoVertex is a sentinel for "no vertex"; it is also used by the engine as
// the artificial DCG source vertex v*_s.
const NoVertex VertexID = ^VertexID(0)

// Label is an interned vertex or edge label. Vertex labels and edge labels
// live in separate namespaces (a Dict per namespace).
type Label uint16

// Edge is a directed labeled edge (From --Label--> To).
type Edge struct {
	From  VertexID
	Label Label
	To    VertexID
}

// String formats the edge as "from -l-> to".
func (e Edge) String() string {
	return fmt.Sprintf("%d -%d-> %d", e.From, e.Label, e.To)
}

// Reverse returns the edge with endpoints swapped (same label).
func (e Edge) Reverse() Edge {
	return Edge{From: e.To, Label: e.Label, To: e.From}
}

// bucket holds the neighbors a vertex reaches through one edge label in
// one direction.
type bucket struct {
	label Label
	list  []VertexID
}

// adj is one direction of a vertex's adjacency, bucketed by edge label.
// The bucket array is unordered and scanned linearly — a vertex touches
// few distinct edge labels, so the scan is a handful of compares, cheaper
// than hashing into a map. An emptied bucket is swap-removed so long-gone
// labels never lengthen the scan.
type adj []bucket

// find returns the bucket index of label l, or -1.
//
//tf:hotpath
func (a adj) find(l Label) int {
	for i := range a {
		if a[i].label == l {
			return i
		}
	}
	return -1
}

// neighbors returns the neighbor slice for label l (nil if no bucket).
//
//tf:hotpath
func (a adj) neighbors(l Label) []VertexID {
	if i := a.find(l); i >= 0 {
		return a[i].list
	}
	return nil
}

// addAt appends neighbor v to bucket bi, or to a new bucket for label l
// when bi is -1.
//
//tf:hotpath
func (a *adj) addAt(bi int, l Label, v VertexID) {
	if bi >= 0 {
		(*a)[bi].list = append((*a)[bi].list, v)
		return
	}
	nl := make([]VertexID, 1, 4) // headroom: most vertices grow past 1 neighbor
	nl[0] = v
	*a = append(*a, bucket{label: l, list: nl})
}

// adjShrinkMin is the smallest backing-array capacity delete compaction
// bothers with; below it the waste is a few words per list.
const adjShrinkMin = 16

// adjKeepEmpty is the largest backing-array capacity an emptied bucket
// retains for reuse; a larger one is dropped to release its memory.
// Matches the capacity addAt gives a fresh bucket, so churn around degree
// zero settles into one retained 4-slot array per touched label.
const adjKeepEmpty = 4

// remove deletes the first occurrence of v from the bucket for label l
// and reports whether it was present, recycling deleted-edge slots: a
// list whose live length has fallen to a quarter of its capacity is
// reallocated at half capacity, and an emptied bucket is either dropped
// (releasing a large backing array) or kept empty (a small one), so the
// next insert of that label reuses it without allocating — delete-heavy
// churn around zero costs no allocation in steady state. The swap-remove
// bounds length; the shrink bounds the retained capacity; together long
// insert/delete churn converges to the steady-state working set instead
// of pinning the high-water mark. The 4-to-1 shrink trigger against the
// 2-to-1 new capacity leaves headroom, so churn around a stable degree
// cannot thrash between shrinking and regrowing.
//
//tf:hotpath
func (a *adj) remove(l Label, v VertexID) bool {
	bi := a.find(l)
	if bi < 0 {
		return false
	}
	bs := *a
	s := bs[bi].list
	for i, x := range s {
		if x != v {
			continue
		}
		s[i] = s[len(s)-1]
		s = s[:len(s)-1]
		switch {
		case len(s) == 0 && cap(s) > adjKeepEmpty:
			// Drop the bucket: swap-remove keeps the scan short and the
			// backing array is released.
			last := len(bs) - 1
			bs[bi] = bs[last]
			bs[last] = bucket{}
			*a = bs[:last]
		case cap(s) >= adjShrinkMin && len(s)*4 <= cap(s):
			ns := make([]VertexID, len(s), cap(s)/2)
			copy(ns, s)
			bs[bi].list = ns
		default:
			bs[bi].list = s
		}
		return true
	}
	return false
}

// clone deep-copies one adjacency direction.
func (a adj) clone() adj {
	c := slices.Clone(a)
	for i := range c {
		c[i].list = slices.Clone(c[i].list)
	}
	return c
}

// vertexData is one vertex's record, stored by value in Graph.verts.
type vertexData struct {
	out, in       adj
	outDeg, inDeg int32
	// set is the vertex's label set as an index into Graph.labelSets;
	// 0 means the vertex is absent (the zero record), 1 the empty set.
	set uint32
}

// Graph is a dynamic labeled directed multigraph. The zero value is not
// usable; call New.
//
// Graph is not safe for concurrent mutation; the paper's system (and every
// baseline) is single-threaded per stream, and so are we.
type Graph struct {
	verts     []vertexData      // indexed by VertexID
	labelSets [][]Label         // interned label sets, each sorted and deduplicated
	setIndex  map[string]uint32 // label set (2 bytes a label) -> index into labelSets
	byLabel   [][]VertexID      // vertex label -> vertices carrying it (append-only), indexed by Label
	edgeCount []int             // edge label -> live edge count, indexed by Label
	numVerts  int
	numEdges  int
}

// unlabeled is the labelSets index of the empty set.
const unlabeled = 1

// New returns an empty graph.
func New() *Graph {
	return &Graph{labelSets: make([][]Label, unlabeled+1), setIndex: map[string]uint32{}}
}

// NumVertices reports the number of live vertices.
func (g *Graph) NumVertices() int { return g.numVerts }

// NumEdges reports the number of live edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// HasVertex reports whether v exists.
func (g *Graph) HasVertex(v VertexID) bool {
	return int(v) < len(g.verts) && g.verts[v].set != 0
}

// AddVertex creates vertex v with the given labels. Labels are sorted and
// deduplicated. Adding an existing vertex is an error (labels are immutable
// after creation); use EnsureVertex for idempotent creation of unlabeled
// vertices.
func (g *Graph) AddVertex(v VertexID, labels ...Label) error {
	if g.HasVertex(v) {
		return fmt.Errorf("graph: vertex %d already exists", v)
	}
	g.grow(v)
	// Adjacency buckets are allocated lazily by the first incident edge:
	// vertex-heavy streams (bulk declarations, WAL replay) pay nothing
	// per vertex beyond its record in the table.
	set := g.internLabels(labels)
	g.verts[v].set = set
	ls := g.labelSets[set]
	g.numVerts++
	for _, l := range ls {
		if int(l) >= len(g.byLabel) {
			nb := make([][]VertexID, int(l)+1)
			copy(nb, g.byLabel)
			g.byLabel = nb
		}
		g.byLabel[l] = append(g.byLabel[l], v)
	}
	return nil
}

// EnsureVertex creates v with the given labels if it does not exist yet.
// If v already exists its labels are left untouched.
func (g *Graph) EnsureVertex(v VertexID, labels ...Label) {
	if !g.HasVertex(v) {
		// AddVertex cannot fail here: we just checked existence.
		_ = g.AddVertex(v, labels...)
	}
}

func (g *Graph) grow(v VertexID) {
	if n := int(v) + 1; n > len(g.verts) {
		g.verts = append(g.verts, make([]vertexData, n-len(g.verts))...) // append amortizes repeated growth
	}
}

// internLabels returns the labelSets index of the set labels denotes,
// interning it on first sight. Streams carry few distinct sets, already
// sorted, so the common call copies and allocates nothing.
//
//tf:map-ok one lookup per vertex declaration, not per edge update
func (g *Graph) internLabels(labels []Label) uint32 {
	if len(labels) == 0 {
		return unlabeled
	}
	sorted := true
	for i := 1; i < len(labels); i++ {
		sorted = sorted && labels[i-1] < labels[i]
	}
	if !sorted {
		labels = slices.Clone(labels)
		slices.Sort(labels)
		labels = slices.Compact(labels)
	}
	var buf [32]byte
	key := buf[:0]
	for _, l := range labels {
		key = append(key, byte(l), byte(l>>8))
	}
	if set, ok := g.setIndex[string(key)]; ok {
		return set
	}
	set := uint32(len(g.labelSets))
	g.labelSets = append(g.labelSets, slices.Clone(labels))
	g.setIndex[string(key)] = set
	return set
}

// Labels returns the sorted label set of v (nil if v is absent or
// unlabeled). The returned slice must not be mutated.
func (g *Graph) Labels(v VertexID) []Label {
	if !g.HasVertex(v) {
		return nil
	}
	return g.labelSets[g.verts[v].set]
}

// LabelSet returns the interned id of v's label set: two vertices have
// equal ids exactly when they carry equal label sets. 0 means v is absent.
//
//tf:hotpath
func (g *Graph) LabelSet(v VertexID) uint32 {
	if int(v) < len(g.verts) {
		return g.verts[v].set
	}
	return 0
}

// HasLabel reports whether v carries label l.
func (g *Graph) HasLabel(v VertexID, l Label) bool {
	if !g.HasVertex(v) {
		return false
	}
	_, ok := slices.BinarySearch(g.labelSets[g.verts[v].set], l)
	return ok
}

// HasAllLabels reports whether required ⊆ labels(v). An empty required set
// matches every existing vertex (the homomorphism condition L(u) ⊆ L(m(u))).
func (g *Graph) HasAllLabels(v VertexID, required []Label) bool {
	if !g.HasVertex(v) {
		return false
	}
	ls := g.labelSets[g.verts[v].set]
	i := 0
	for _, r := range required {
		for i < len(ls) && ls[i] < r {
			i++
		}
		if i >= len(ls) || ls[i] != r {
			return false
		}
	}
	return true
}

// VerticesWithLabel returns the vertices carrying label l. The slice is
// owned by the graph and must not be mutated. Because vertex labels are
// immutable, the index is append-only and always exact.
func (g *Graph) VerticesWithLabel(l Label) []VertexID {
	if int(l) >= len(g.byLabel) {
		return nil
	}
	return g.byLabel[l]
}

// CountVerticesWithLabels returns the number of vertices whose label set is
// a superset of required. For an empty required set it returns NumVertices.
func (g *Graph) CountVerticesWithLabels(required []Label) int {
	if len(required) == 0 {
		return g.numVerts
	}
	// Scan the candidates of the rarest label.
	rare := required[0]
	for _, l := range required[1:] {
		if len(g.VerticesWithLabel(l)) < len(g.VerticesWithLabel(rare)) {
			rare = l
		}
	}
	n := 0
	for _, v := range g.VerticesWithLabel(rare) {
		if g.HasAllLabels(v, required) {
			n++
		}
	}
	return n
}

// bumpEdgeCount adjusts the live-edge counter of label l by d.
func (g *Graph) bumpEdgeCount(l Label, d int) {
	if int(l) >= len(g.edgeCount) {
		nc := make([]int, int(l)+1)
		copy(nc, g.edgeCount)
		g.edgeCount = nc
	}
	g.edgeCount[l] += d
}

// InsertEdge adds edge (from, l, to), creating missing endpoints as
// unlabeled vertices. It reports whether the edge was newly inserted
// (false for duplicates, which leave the graph unchanged). The duplicate
// probe and the insertion share one bucket lookup per direction.
//
//tf:hotpath
func (g *Graph) InsertEdge(from VertexID, l Label, to VertexID) bool {
	g.EnsureVertex(from)
	g.EnsureVertex(to)
	fd, td := &g.verts[from], &g.verts[to] // taken after both exist: creating one may move the table
	bi, ti := fd.out.find(l), td.in.find(l)
	var out, in []VertexID
	if bi >= 0 {
		out = fd.out[bi].list
	}
	if ti >= 0 {
		in = td.in[ti].list
	}
	// Duplicate probe on the shorter mirror, as in HasEdge.
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
	g.bumpEdgeCount(l, 1)
	g.numEdges++
	return true
}

// DeleteEdge removes edge (from, l, to). It reports whether the edge
// existed.
//
//tf:hotpath
func (g *Graph) DeleteEdge(from VertexID, l Label, to VertexID) bool {
	if !g.HasVertex(from) || !g.HasVertex(to) {
		return false
	}
	fd, td := &g.verts[from], &g.verts[to]
	if !fd.out.remove(l, to) {
		return false
	}
	fd.outDeg--
	td.in.remove(l, from)
	td.inDeg--
	g.bumpEdgeCount(l, -1)
	g.numEdges--
	return true
}

// HasEdge reports whether edge (from, l, to) exists.
//
//tf:hotpath
func (g *Graph) HasEdge(from VertexID, l Label, to VertexID) bool {
	if !g.HasVertex(from) || !g.HasVertex(to) {
		return false
	}
	// The edge is mirrored in both half-adjacencies; probe the shorter
	// side so dup checks against a hub vertex stay cheap.
	out := g.verts[from].out.neighbors(l)
	in := g.verts[to].in.neighbors(l)
	if len(in) < len(out) {
		for _, x := range in {
			if x == from {
				return true
			}
		}
		return false
	}
	for _, x := range out {
		if x == to {
			return true
		}
	}
	return false
}

// OutNeighbors returns the targets of edges from v with label l. The slice
// is owned by the graph; callers must not mutate it and must not hold it
// across graph mutations.
//
//tf:hotpath
func (g *Graph) OutNeighbors(v VertexID, l Label) []VertexID {
	if !g.HasVertex(v) {
		return nil
	}
	return g.verts[v].out.neighbors(l)
}

// InNeighbors returns the sources of edges into v with label l, with the
// same ownership rules as OutNeighbors.
//
//tf:hotpath
func (g *Graph) InNeighbors(v VertexID, l Label) []VertexID {
	if !g.HasVertex(v) {
		return nil
	}
	return g.verts[v].in.neighbors(l)
}

// OutDegree returns the total out-degree of v across all labels.
func (g *Graph) OutDegree(v VertexID) int {
	if !g.HasVertex(v) {
		return 0
	}
	return int(g.verts[v].outDeg)
}

// InDegree returns the total in-degree of v across all labels.
func (g *Graph) InDegree(v VertexID) int {
	if !g.HasVertex(v) {
		return 0
	}
	return int(g.verts[v].inDeg)
}

// Degree returns in-degree + out-degree of v.
func (g *Graph) Degree(v VertexID) int { return g.InDegree(v) + g.OutDegree(v) }

// EdgeCount returns the number of live edges with label l.
func (g *Graph) EdgeCount(l Label) int {
	if int(l) >= len(g.edgeCount) {
		return 0
	}
	return g.edgeCount[l]
}

// ForEachOutLabel calls fn for every (label, neighbors) pair of v's
// outgoing adjacency, in bucket order (deterministic for a given update
// history). Neighbor slices follow OutNeighbors ownership rules.
func (g *Graph) ForEachOutLabel(v VertexID, fn func(l Label, nbrs []VertexID)) {
	if !g.HasVertex(v) {
		return
	}
	for _, b := range g.verts[v].out {
		if len(b.list) > 0 {
			fn(b.label, b.list)
		}
	}
}

// ForEachInLabel calls fn for every (label, neighbors) pair of v's incoming
// adjacency, in bucket order.
func (g *Graph) ForEachInLabel(v VertexID, fn func(l Label, nbrs []VertexID)) {
	if !g.HasVertex(v) {
		return
	}
	for _, b := range g.verts[v].in {
		if len(b.list) > 0 {
			fn(b.label, b.list)
		}
	}
}

// ForEachEdge calls fn for every live edge, in (from-vertex, bucket,
// insertion) order — deterministic for a given update history, which the
// snapshot/serialization cold paths rely on. fn must not mutate the graph.
func (g *Graph) ForEachEdge(fn func(Edge)) {
	for id := range g.verts {
		for _, b := range g.verts[id].out {
			for _, to := range b.list {
				fn(Edge{From: VertexID(id), Label: b.label, To: to})
			}
		}
	}
}

// Edges returns all live edges in ForEachEdge order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.numEdges)
	g.ForEachEdge(func(e Edge) { es = append(es, e) })
	return es
}

// ForEachVertex calls fn for every live vertex.
func (g *Graph) ForEachVertex(fn func(VertexID)) {
	for id := range g.verts {
		if g.verts[id].set != 0 {
			fn(VertexID(id))
		}
	}
}

// Clone returns a deep copy of the graph. Used by snapshot-based baselines
// (IncIsoMat, naive recompute) to evaluate "before" and "after" states.
func (g *Graph) Clone() *Graph {
	c := New()
	c.verts = slices.Clone(g.verts)
	for id := range c.verts {
		vd := &c.verts[id]
		vd.out, vd.in = vd.out.clone(), vd.in.clone()
	}
	c.labelSets = slices.Clone(g.labelSets) // the sets are immutable: safe to share
	c.setIndex = maps.Clone(g.setIndex)
	c.numVerts = g.numVerts
	c.numEdges = g.numEdges
	c.byLabel = make([][]VertexID, len(g.byLabel))
	for l, vs := range g.byLabel {
		if len(vs) > 0 {
			c.byLabel[l] = append([]VertexID(nil), vs...)
		}
	}
	c.edgeCount = append([]int(nil), g.edgeCount...)
	return c
}
