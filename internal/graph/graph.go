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
// Data layout (DESIGN.md §16): the graph is pointer-free, a handful of
// flat arrays however large it grows. Vertex records, 20 bytes, are
// stored by value in one table indexed by VertexID; a vertex's label set
// is an index into a table of interned sets (streams have a handful of
// distinct ones). Per-vertex adjacency is label-bucketed — a short array
// of (label, neighbor list) buckets scanned linearly, since a vertex
// touches few distinct edge labels. A direction with one label and one
// neighbor keeps it in the record; buckets and longer neighbor lists are
// blocks of two arenas shared in design with the DCG (package arena). The
// per-label vertex index and edge counters are flat slices indexed by the
// interned Label. No hash map is touched anywhere on the
// insert/delete/enumerate path (declaring a vertex looks its label set up
// in one), and iteration order is deterministic (a property the
// emission-determinism contract leans on; Go map iteration is randomized
// by design).
//
// Vertex labels are fixed once the vertex is created: this matches the RDF
// datasets used by the paper (LSBench, Netflow), where the type of an entity
// never changes while edges stream in and out.
package graph

import (
	"fmt"
	"maps"
	"slices"
	"unsafe"

	"turboflux/internal/arena"
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

// cell is the header of one neighbor list (arena.Cell): a single neighbor
// lives in the cell, a longer list is a block of Graph.nbrs.
type cell = arena.Cell[VertexID]

// bucket holds the neighbors a vertex reaches through one edge label in
// one direction: 12 bytes.
type bucket struct {
	label Label
	c     cell
}

// head is one direction of a vertex's adjacency, 8 bytes of its record:
//
//   - zero: no edges;
//   - inline (n&headInline != 0): one label, n>>headLabelShift, with one
//     neighbor, a[0];
//   - otherwise a block of Graph.buckets at offset a[0], of class
//     n>>headClassShift&headClassMask (capacity 1<<class), holding
//     n>>headCountShift buckets.
//
// The bucket array is unordered and scanned linearly — a vertex touches
// few distinct edge labels, so the scan is a handful of compares, cheaper
// than hashing into a map. An emptied bucket is swap-removed at once, so
// long-gone labels never lengthen the scan; churn through the free lists
// of both arenas allocates nothing. A block holds two or more buckets, or
// one whose list is a block of its own: one label with one neighbor is
// always inline.
type head struct {
	a [1]VertexID
	n uint32
}

const (
	headInline     = 1
	headClassShift = 1
	headClassMask  = 31
	headCountShift = 8
	headLabelShift = 16
)

func inlineHead(l Label, v VertexID) head {
	return head{a: [1]VertexID{v}, n: uint32(l)<<headLabelShift | headInline}
}

func blockHead(off uint32, n int, k uint32) head {
	return head{a: [1]VertexID{VertexID(off)}, n: uint32(n)<<headCountShift | k<<headClassShift}
}

func (h *head) block() (off uint32, n int, k uint32) {
	return uint32(h.a[0]), int(h.n >> headCountShift), h.n >> headClassShift & headClassMask
}

// bucketsOf returns the buckets of h (none for an empty or inline head).
//
//tf:hotpath
func (g *Graph) bucketsOf(h *head) []bucket {
	if h.n&headInline != 0 {
		return nil
	}
	return g.buckets.Block(uint32(h.a[0]), int(h.n>>headCountShift))
}

// list returns the neighbors of cell c; an inline neighbor is returned as
// a slice into the cell.
//
//tf:hotpath
func (g *Graph) list(c *cell) []VertexID {
	if c.Class() != 0 {
		return g.nbrs.List(*c)
	}
	return c.A[:c.Len()]
}

// lookup returns the neighbors h reaches through label l and the position
// of l's bucket among h's buckets (-1 when h has none for l or is inline).
//
//tf:hotpath
func (g *Graph) lookup(h *head, l Label) ([]VertexID, int) {
	if h.n&headInline != 0 {
		if Label(h.n>>headLabelShift) == l {
			return h.a[:], -1
		}
		return nil, -1
	}
	bs := g.bucketsOf(h)
	for i := range bs {
		if bs[i].label == l {
			return g.list(&bs[i].c), i
		}
	}
	return nil, -1
}

// add appends neighbor v to h's list for label l, whose bucket position
// lookup returned as bi.
//
//tf:hotpath
func (g *Graph) add(h *head, bi int, l Label, v VertexID) {
	switch {
	case h.n == 0:
		*h = inlineHead(l, v)
	case h.n&headInline != 0:
		u, hl := h.a[0], Label(h.n>>headLabelShift)
		if hl == l {
			c := arena.Inline(u, 0)
			g.nbrs.Insert(&c, 1, v, u)
			off := g.buckets.Alloc(0)
			g.buckets.Block(off, 1)[0] = bucket{label: l, c: c}
			*h = blockHead(off, 1, 0)
			return
		}
		off := g.buckets.Alloc(1)
		bs := g.buckets.Block(off, 2)
		bs[0] = bucket{label: hl, c: arena.Inline(u, 0)}
		bs[1] = bucket{label: l, c: arena.Inline(v, 0)}
		*h = blockHead(off, 2, 1)
	case bi >= 0:
		c := &g.bucketsOf(h)[bi].c
		g.nbrs.Insert(c, c.Len(), v, c.A[0])
	default:
		off, n, k := h.block()
		if n == 1<<k {
			off, k = g.buckets.Move(off, n, k, k+1), k+1
		}
		g.buckets.Block(off, n+1)[n] = bucket{label: l, c: arena.Inline(v, 0)}
		*h = blockHead(off, n+1, k)
	}
}

// remove swap-removes neighbor v from h's list for label l and reports
// whether it was there. A list that drains to one neighbor goes back into
// its cell, an emptied bucket is swap-removed, a bucket block three
// quarters empty moves down a class (the lists' arena does the same), and
// one label left with one neighbor goes back inline: the swap-remove
// bounds length, the shrink bounds the retained capacity, and long
// insert/delete churn converges to the steady-state working set instead
// of pinning the high-water mark.
//
//tf:hotpath
func (g *Graph) remove(h *head, l Label, v VertexID) bool {
	if h.n&headInline != 0 {
		if Label(h.n>>headLabelShift) != l || h.a[0] != v {
			return false
		}
		*h = head{}
		return true
	}
	off, n, k := h.block()
	bs := g.buckets.Block(off, n)
	bi := -1
	for i := range bs {
		if bs[i].label == l {
			bi = i
			break
		}
	}
	if bi < 0 {
		return false
	}
	c := &bs[bi].c
	if c.Class() == 0 {
		if c.A[0] != v {
			return false
		}
		n--
		bs[bi] = bs[n]
		bs[n] = bucket{}
	} else {
		s := g.nbrs.List(*c)
		i := slices.Index(s, v)
		if i < 0 {
			return false
		}
		last := len(s) - 1
		s[i] = s[last]
		if x, inline := g.nbrs.Remove(c, last); inline {
			*c = arena.Inline(x, 0)
		}
	}
	switch {
	case n == 1 && bs[0].c.Class() == 0:
		*h = inlineHead(bs[0].label, bs[0].c.A[0])
		g.buckets.Release(off, k)
	case k >= arena.ShrinkMin && n*4 <= 1<<k:
		*h = blockHead(g.buckets.Move(off, n, k, k-1), n, k-1)
	default:
		*h = blockHead(off, n, k)
	}
	return true
}

// neighbors returns the neighbors h reaches through label l.
//
//tf:hotpath
func (g *Graph) neighbors(h *head, l Label) []VertexID {
	s, _ := g.lookup(h, l)
	return s
}

// forEachLabel calls fn for every (label, neighbors) pair of h, in bucket
// order.
func (g *Graph) forEachLabel(h *head, fn func(l Label, nbrs []VertexID)) {
	if h.n&headInline != 0 {
		fn(Label(h.n>>headLabelShift), h.a[:])
		return
	}
	bs := g.bucketsOf(h)
	for i := range bs {
		fn(bs[i].label, g.list(&bs[i].c))
	}
}

// degree returns the number of neighbors of h across all labels.
func (g *Graph) degree(h *head) int {
	n := 0
	g.forEachLabel(h, func(_ Label, nbrs []VertexID) { n += len(nbrs) })
	return n
}

// vertexData is one vertex's record, stored by value in Graph.verts: 20
// bytes and no pointer.
type vertexData struct {
	// set is the vertex's label set as an index into Graph.labelSets;
	// 0 means the vertex is absent (the zero record), 1 the empty set.
	set     uint32
	out, in head
}

// MaxVertexID is the largest vertex ID a graph accepts. The vertex table
// is dense, so an ID costs its record (20 B) whether or not the IDs below
// it are used: the bound caps the table at 5.4 GB, keeps every ID below
// NoVertex, and is checked wherever IDs enter the system (request
// parsing, the engines' Apply, graph files, recovery).
const MaxVertexID VertexID = 1<<28 - 1

// CheckVertexID returns an error when v exceeds MaxVertexID.
func CheckVertexID(v VertexID) error {
	if v > MaxVertexID {
		return fmt.Errorf("vertex id %d exceeds the maximum %d", v, MaxVertexID)
	}
	return nil
}

// Graph is a dynamic labeled directed multigraph. The zero value is not
// usable; call New.
//
// Graph is not safe for concurrent mutation; the paper's system (and every
// baseline) is single-threaded per stream, and so are we.
type Graph struct {
	verts     []vertexData // indexed by VertexID
	buckets   arena.Pool[VertexID, bucket]
	nbrs      arena.Pool[VertexID, VertexID]
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
	if err := CheckVertexID(v); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
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
// If v already exists its labels are left untouched. v must not exceed
// MaxVertexID: callers bound IDs where they enter the system, so an ID
// past it here is a bug and panics.
func (g *Graph) EnsureVertex(v VertexID, labels ...Label) {
	if !g.HasVertex(v) {
		if err := g.AddVertex(v, labels...); err != nil {
			panic(err)
		}
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
	fh, th := &g.verts[from].out, &g.verts[to].in // taken after both exist: creating one may move the table
	out, bi := g.lookup(fh, l)
	in, ti := g.lookup(th, l)
	// Duplicate probe on the shorter mirror, as in HasEdge.
	if len(in) < len(out) {
		if slices.Contains(in, from) {
			return false
		}
	} else if slices.Contains(out, to) {
		return false
	}
	g.add(fh, bi, l, to)
	g.add(th, ti, l, from)
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
	if !g.remove(&g.verts[from].out, l, to) {
		return false
	}
	g.remove(&g.verts[to].in, l, from)
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
	out := g.neighbors(&g.verts[from].out, l)
	in := g.neighbors(&g.verts[to].in, l)
	if len(in) < len(out) {
		return slices.Contains(in, from)
	}
	return slices.Contains(out, to)
}

// OutNeighbors returns the targets of edges from v with label l. The slice
// is owned by the graph; callers must not mutate it and must not hold it
// across graph mutations.
//
//tf:hotpath
func (g *Graph) OutNeighbors(v VertexID, l Label) []VertexID {
	if int(v) >= len(g.verts) {
		return nil
	}
	return g.neighbors(&g.verts[v].out, l)
}

// InNeighbors returns the sources of edges into v with label l, with the
// same ownership rules as OutNeighbors.
//
//tf:hotpath
func (g *Graph) InNeighbors(v VertexID, l Label) []VertexID {
	if int(v) >= len(g.verts) {
		return nil
	}
	return g.neighbors(&g.verts[v].in, l)
}

// OutDegree returns the total out-degree of v across all labels.
func (g *Graph) OutDegree(v VertexID) int {
	if !g.HasVertex(v) {
		return 0
	}
	return g.degree(&g.verts[v].out)
}

// InDegree returns the total in-degree of v across all labels.
func (g *Graph) InDegree(v VertexID) int {
	if !g.HasVertex(v) {
		return 0
	}
	return g.degree(&g.verts[v].in)
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
	if g.HasVertex(v) {
		g.forEachLabel(&g.verts[v].out, fn)
	}
}

// ForEachInLabel calls fn for every (label, neighbors) pair of v's incoming
// adjacency, in bucket order.
func (g *Graph) ForEachInLabel(v VertexID, fn func(l Label, nbrs []VertexID)) {
	if g.HasVertex(v) {
		g.forEachLabel(&g.verts[v].in, fn)
	}
}

// ForEachEdge calls fn for every live edge, in (from-vertex, bucket,
// insertion) order — deterministic for a given update history, which the
// snapshot/serialization cold paths rely on. On a graph that has seen no
// deletion, buckets are in the order their labels first appeared. fn must
// not mutate the graph.
func (g *Graph) ForEachEdge(fn func(Edge)) {
	for id := range g.verts {
		g.forEachLabel(&g.verts[id].out, func(l Label, nbrs []VertexID) {
			for _, to := range nbrs {
				fn(Edge{From: VertexID(id), Label: l, To: to})
			}
		})
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
	c.buckets = g.buckets.Clone()
	c.nbrs = g.nbrs.Clone()
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

// setIndexEntryBytes is HeldBytes' estimate of one label-set index entry
// besides its key's bytes: the map's slot (string header and value) with
// its control and load-factor overhead.
const setIndexEntryBytes = 40

// HeldBytes returns the heap bytes the graph holds: the capacity of the
// vertex table, both adjacency arenas with their free lists, the label-set
// table and the per-label vertex and edge indexes — exact — plus an
// estimate for the label-set index map, which grows with distinct label
// sets, not with the graph. TestGraphFootprint holds it against the
// runtime's own count.
func (g *Graph) HeldBytes() int64 {
	b := int64(unsafe.Sizeof(*g)) + arena.SliceBytes(g.verts) +
		g.buckets.HeldBytes() + g.nbrs.HeldBytes() +
		arena.SliceBytes(g.labelSets) + arena.SliceBytes(g.byLabel) + arena.SliceBytes(g.edgeCount)
	for _, ls := range g.labelSets {
		b += arena.SliceBytes(ls)
	}
	for _, vs := range g.byLabel {
		b += arena.SliceBytes(vs)
	}
	for k := range g.setIndex {
		b += int64(len(k)) + setIndexEntryBytes
	}
	return b
}
