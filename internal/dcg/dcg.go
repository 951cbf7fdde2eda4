// Package dcg implements the data-centric graph (DCG), TurboFlux's compact
// representation of intermediate results (Section 3 of the paper).
//
// The DCG conceptually is a complete multigraph over the data vertices in
// which every ordered pair (v, v') has one edge per non-root query vertex
// u', labeled u', whose state is NULL, IMPLICIT or EXPLICIT:
//
//   - an IMPLICIT edge (v, u', v') records that some data path v_s→v.v'
//     matches the query-tree path u_s→P(u').u', but some subtree of u' is
//     not yet matched under v' (Definition 5);
//   - an EXPLICIT edge additionally has every subtree of u' matched under
//     v' (Definition 4).
//
// NULL edges are never stored. Edges whose label is the root u_s emanate
// from the artificial source v*_s, represented here by graph.NoVertex.
//
// Data layout (DESIGN.md §16): the DCG is pointer-free. Each participating
// data vertex owns a block of one cell arena, found through a paged slot
// table (blocks of vertices that lost their last edge are recycled). A
// block holds one cell per role the vertex's labels allow — an edge
// (v, u', v') needs L(u') ⊆ L(v') and L(P(u')) ⊆ L(v), and data-vertex
// labels never change — so only the cells a vertex can ever fill exist:
//
//   - an in-cell for u' (L(u') ⊆ L(v')): the in-edge list (parent, state),
//     sorted by parent and searched by binary search — ascending parent
//     order also makes every parent enumeration deterministic without
//     per-call sorting;
//   - an out-cell for u' (L(P(u')) ⊆ L(v)): the explicit-children list
//     (the candidate list SubgraphSearch enumerates), sorted by child.
//     Keeping it sorted makes candidate enumeration a pure function of the
//     DCG *state*, independent of the insertion/deletion history that
//     produced it — the property the multi-query layer relies on when
//     several queries share one DCG and each must reproduce, byte for
//     byte, the transcript a private DCG (with a different history) would
//     have produced (DESIGN.md §17).
//
// Which roles a block holds, and where, is its role class: one per graph
// label set, interned the first time the DCG meets the set.
//
// A cell is 8 bytes. Most lists are empty and almost all others hold one
// entry, which lives in the cell itself; a longer list is a power-of-two
// block of one of two per-DCG list arenas (package arena, shared with the
// data graph), recycled through per-class free lists. No vertex and no
// list is a heap object of its own, so the collector has nothing to trace
// here and churn allocates nothing.
//
// The per-label explicit-out count — the paper's bitmap bit — is simply
// the length of the explicit-children list, so MatchAllChildren stays
// O(|Children(u)|) integer tests.
package dcg

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"turboflux/internal/arena"
	"turboflux/internal/graph"
	"turboflux/internal/query"
)

// State is the state of a DCG edge.
type State uint8

const (
	// Null means the edge is not present in the DCG.
	Null State = iota
	// Implicit marks a candidate whose subtrees are not all matched yet.
	Implicit
	// Explicit marks a candidate whose subtrees are all matched.
	Explicit
)

// String returns N/I/E, the abbreviations used in the paper's figures.
func (s State) String() string {
	switch s {
	case Null:
		return "N"
	case Implicit:
		return "I"
	case Explicit:
		return "E"
	default:
		return "?"
	}
}

// EdgeBytes is the accounting cost of one stored DCG edge, used for the
// intermediate-result-size comparisons (Figures 6b, 7b, 8b, 9b): parent
// vertex ID, child vertex ID, query-vertex label and state, plus index
// overhead. HeldBytes reports what the process actually holds.
const EdgeBytes = 16

// inEdge is one stored incoming DCG edge of a vertex: the parent data
// vertex (graph.NoVertex for root edges) and the edge state. The
// parent-side explicit-children entry is found by binary search over the
// sorted children list when the edge leaves Explicit.
type inEdge struct {
	parent graph.VertexID
	state  State
}

// searchIn returns the position of parent p in the sorted in-edge list l
// and whether it is present; an absent parent maps to its insertion
// position. graph.NoVertex is the maximum VertexID, so root edges sort
// last.
//
//tf:hotpath
func searchIn(l []inEdge, p graph.VertexID) (int, bool) {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid].parent < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l) && l[lo].parent == p
}

// cell is the header of one list (arena.Cell): class 0 is the inline
// form, where A holds the single parent or child and, for an in-cell, the
// tag bits hold its state; class k >= 1 is a block of one of the two list
// arenas. The first cell of a vertex's block is no list but the block's
// header (see DCG.cells).
type cell = arena.Cell[graph.VertexID]

const stateMask = arena.TagMask

func inlineCell(x graph.VertexID, s State) cell { return arena.Inline(x, uint32(s)) }

// DCG is the data-centric graph for one query tree. The zero value is not
// usable; call New.
type DCG struct {
	tree *query.Tree
	g    *graph.Graph // read for the label set of a vertex that needs a block
	nq   int

	// The slot table maps a data vertex to the offset of its block in
	// cells, -1 when absent. It is cut into pages of pageSize vertex IDs:
	// pages[v>>pageShift] is the offset in slots of v's page, and offset 0
	// is the shared page, all -1, that stands for every page no block has
	// needed yet. A DCG thus pays 4 B per ID only in the ID ranges where
	// its roles' label sets live, plus 4 B per page of the ID space.
	pages []uint32
	slots []int32

	// cells is the block arena. A block is a header cell — A: the vertex
	// (NoVertex when free), N: its graph label-set id, which names the
	// block's role class — followed by one cell per role the class allows:
	// the in-cell for u' lists the stored incoming edges labeled u', sorted
	// by parent; the out-cell for u' lists the EXPLICIT children labeled u',
	// for the forward enumeration of SubgraphSearch (candidates come
	// straight from the DCG, never by filtering data-graph adjacency), and
	// its length is the paper's bitmap bit / explicit-out counter.
	cells   []cell
	classes []roleClass // by graph label-set id
	ins     arena.Pool[graph.VertexID, inEdge]
	outs    arena.Pool[graph.VertexID, graph.VertexID]

	numEdges    int     // stored (implicit + explicit) edges
	numExplicit int     // stored explicit edges
	explByLabel []int64 // explicit-edge count per query-vertex label
}

// roleClass is the block layout of the vertices of one graph label set.
type roleClass struct {
	// in[u] and out[u] are the positions of u's in- and out-cell among the
	// cells after a block's header, -1 when the labels rule the role out.
	in, out [MaxQueryVertices]int8
	width   uint32   // cells per block, header included; 0 until the set is met
	free    []uint32 // offsets of recycled blocks of this class (LIFO)
}

// MaxQueryVertices bounds the query size a DCG indexes: a block holds at
// most 2·nq − 1 roles, placed by int8 positions.
const MaxQueryVertices = 64

// New returns an empty DCG for query tree t over data graph g, whose
// vertex labels size each vertex's block. t has at most MaxQueryVertices
// vertices.
func New(t *query.Tree, g *graph.Graph) *DCG {
	return &DCG{
		tree:        t,
		g:           g,
		nq:          t.Q.NumVertices(),
		explByLabel: make([]int64, t.Q.NumVertices()),
	}
}

// Tree returns the query tree this DCG indexes.
func (d *DCG) Tree() *query.Tree { return d.tree }

// pageShift sets the slot table's page: 1<<pageShift vertex IDs, 4 KB.
const (
	pageShift = 10
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// slot returns the offset of v's block, or -1. graph.NoVertex never has a
// block (its page lies beyond any page table).
//
//tf:hotpath
func (d *DCG) slot(v graph.VertexID) int32 {
	if p := v >> pageShift; int(p) < len(d.pages) {
		return d.slots[d.pages[p]|uint32(v)&pageMask]
	}
	return -1
}

// inCellAt returns the in-cell for u of block b, or nil when b's labels
// rule it out.
//
//tf:hotpath
func (d *DCG) inCellAt(b int32, u graph.VertexID) *cell {
	return d.cellAt(b, d.classes[d.cells[b].N].in[u])
}

// outCellAt returns the out-cell for u of block b, or nil when b's labels
// rule it out.
//
//tf:hotpath
func (d *DCG) outCellAt(b int32, u graph.VertexID) *cell {
	return d.cellAt(b, d.classes[d.cells[b].N].out[u])
}

// cellAt returns the cell at position pos after block b's header, or nil
// for pos -1.
//
//tf:hotpath
func (d *DCG) cellAt(b int32, pos int8) *cell {
	if pos < 0 {
		return nil
	}
	return &d.cells[int(b)+1+int(pos)]
}

// filling returns c, a cell a transition is about to fill. nil means the
// engine asked for an edge the vertex's labels rule out.
//
//tf:hotpath
func filling(c *cell) *cell {
	if c == nil {
		panic("dcg: edge to or from a vertex whose labels rule it out")
	}
	return c
}

// ensureSlot returns the offset of v's block, allocating it if absent: a
// free block of v's class is reused, otherwise a fresh one is appended.
func (d *DCG) ensureSlot(v graph.VertexID) int32 {
	i := d.slotIndex(v)
	if b := d.slots[i]; b >= 0 {
		return b
	}
	set := d.g.LabelSet(v)
	if int(set) >= len(d.classes) || d.classes[set].width == 0 {
		d.internClass(set, v)
	}
	cl := &d.classes[set]
	var b int32
	if n := len(cl.free); n > 0 {
		b = int32(cl.free[n-1])
		cl.free = cl.free[:n-1]
	} else {
		if len(d.cells)+int(cl.width) > math.MaxInt32 {
			panic("dcg: the cell arena outgrew its 31-bit offsets")
		}
		b = int32(len(d.cells))
		d.cells = append(d.cells, make([]cell, cl.width)...)
		d.cells[b].N = set
	}
	d.cells[b].A[0] = v
	d.slots[i] = b
	return b
}

// slotIndex returns the position of v's entry in slots, giving v's page
// its own entries (all -1) the first time a block is needed in it.
func (d *DCG) slotIndex(v graph.VertexID) int {
	p := int(v >> pageShift)
	if p >= len(d.pages) {
		if len(d.slots) == 0 {
			d.slots = newPage(nil)
		}
		d.pages = append(d.pages, make([]uint32, p+1-len(d.pages))...) // zero: the shared page
	}
	if d.pages[p] == 0 {
		if len(d.slots)+pageSize > math.MaxInt32 {
			panic("dcg: the slot table outgrew its 31-bit offsets")
		}
		d.pages[p] = uint32(len(d.slots))
		d.slots = newPage(d.slots)
	}
	return int(d.pages[p]) | int(v&pageMask)
}

// newPage appends one page of absent slots to s.
func newPage(s []int32) []int32 {
	s = append(s, make([]int32, pageSize)...) // append amortizes repeated growth
	for i := len(s) - pageSize; i < len(s); i++ {
		s[i] = -1
	}
	return s
}

// internClass lays out the role class of label set set, which v carries:
// an in-cell for u when L(u) ⊆ L(v) (the edges end at a candidate of u),
// an out-cell for u when L(P(u)) ⊆ L(v) (they start at a candidate of
// P(u)).
func (d *DCG) internClass(set uint32, v graph.VertexID) {
	if n := int(set) + 1; n > len(d.classes) {
		d.classes = append(d.classes, make([]roleClass, n-len(d.classes))...)
	}
	cl := &d.classes[set]
	var n int8
	place := func(need graph.VertexID) int8 {
		if need == graph.NoVertex || !d.g.HasAllLabels(v, d.tree.Q.Labels(need)) {
			return -1
		}
		n++
		return n - 1
	}
	for u := range d.nq {
		cl.in[u] = place(graph.VertexID(u))
	}
	for u := range d.nq {
		cl.out[u] = place(d.tree.Parent(graph.VertexID(u)))
	}
	cl.width = 1 + uint32(n)
}

// release recycles block b once its last cell has emptied. Every cell of a
// free block is empty, so reuse costs nothing.
//
//tf:hotpath
func (d *DCG) release(b int32) {
	h := &d.cells[b]
	cl := &d.classes[h.N]
	for _, c := range d.cells[b+1 : b+int32(cl.width)] {
		if c.Len() != 0 {
			return
		}
	}
	v := h.A[0]
	d.slots[d.pages[v>>pageShift]|uint32(v)&pageMask] = -1
	h.A[0] = graph.NoVertex
	cl.free = append(cl.free, uint32(b))
}

// nextBlock returns the offset of the block after the one at b.
func (d *DCG) nextBlock(b int) int { return b + int(d.classes[d.cells[b].N].width) }

// inList returns the in-edges of cell c; one backs the inline form.
//
//tf:hotpath
func (d *DCG) inList(c cell, one *[1]inEdge) []inEdge {
	if c.Class() != 0 {
		return d.ins.List(c)
	}
	one[0] = inEdge{parent: c.A[0], state: State(c.N & stateMask)}
	return one[:c.Len()]
}

// inCell returns v2's in-cell for label u, or the empty cell.
//
//tf:hotpath
func (d *DCG) inCell(v2, u graph.VertexID) cell { return d.inCellOf(d.slot(v2), u) }

// inCellOf returns the in-cell for u of block b, or the empty cell when b
// is -1 or its labels rule the role out.
//
//tf:hotpath
func (d *DCG) inCellOf(b int32, u graph.VertexID) cell {
	if b >= 0 {
		if pos := d.classes[d.cells[b].N].in[u]; pos >= 0 {
			return d.cells[int(b)+1+int(pos)]
		}
	}
	return cell{}
}

// outCell returns v's explicit-children cell for label u, or nil.
//
//tf:hotpath
func (d *DCG) outCell(v, u graph.VertexID) *cell {
	if b := d.slot(v); b >= 0 {
		return d.outCellAt(b, u)
	}
	return nil
}

// children returns the explicit children of cell c; an inline child is
// returned as a slice into the cell table.
//
//tf:hotpath
func (d *DCG) children(c *cell) []graph.VertexID {
	if c.Class() != 0 {
		return d.outs.List(*c)
	}
	return c.A[:c.Len()]
}

// GetState returns the state of DCG edge (v, u, v2). Use graph.NoVertex as
// v for root-labeled edges (v*_s, u_s, v2).
//
//tf:hotpath
func (d *DCG) GetState(v graph.VertexID, u graph.VertexID, v2 graph.VertexID) State {
	c := d.inCell(v2, u)
	if c.Class() == 0 {
		// An empty cell is all zero, so a chance match of v against it
		// still reads Null.
		if c.A[0] == v {
			return State(c.N & stateMask)
		}
		return Null
	}
	l := d.ins.List(c)
	if i, ok := searchIn(l, v); ok {
		return l[i].state
	}
	return Null
}

// MakeTransition sets the state of DCG edge (v, u, v2) to target and
// reports whether the stored state actually changed. Counts (per-vertex
// explicit-out, per-label explicit totals, total edges) are maintained
// here so every engine path stays consistent.
//
//tf:hotpath
func (d *DCG) MakeTransition(v graph.VertexID, u graph.VertexID, v2 graph.VertexID, target State) bool {
	var one [1]inEdge
	b2 := d.slot(v2)
	l := d.inList(d.inCellOf(b2, u), &one)
	idx, ok := searchIn(l, v)
	cur := Null
	if ok {
		cur = l[idx].state
	}
	if cur == target {
		return false
	}

	// Leaving Explicit: remove v2 from the parent's sorted explicit-
	// children list, preserving ascending order so candidate enumeration
	// stays a pure function of the DCG state (see the package comment).
	if cur == Explicit {
		d.numExplicit--
		d.explByLabel[u]--
		if v != graph.NoVertex {
			pb := d.slot(v) // the parent holds v2 in this out-cell, so it has a block
			c := d.outCellAt(pb, u)
			if c.Class() == 0 {
				*c = cell{}
			} else {
				op, _ := slices.BinarySearch(d.outs.List(*c), v2)
				if last, inline := d.outs.Remove(c, op); inline {
					*c = inlineCell(last, Null)
				}
			}
			d.release(pb)
		}
	}

	// Update v2's in-edge storage.
	switch {
	case target == Null: // cur != Null: remove, keeping the list sorted
		c := d.inCellAt(b2, u)
		if c.Class() == 0 {
			*c = cell{}
		} else if last, inline := d.ins.Remove(c, idx); inline {
			*c = inlineCell(last.parent, last.state)
		}
		d.numEdges--
		d.release(b2)
	case cur == Null: // insert at the sorted position
		if b2 < 0 {
			b2 = d.ensureSlot(v2)
		}
		c := filling(d.inCellAt(b2, u))
		if c.Len() == 0 {
			*c = inlineCell(v, target)
		} else {
			d.ins.Insert(c, idx, inEdge{parent: v, state: target}, one[0])
		}
		d.numEdges++
	default: // Implicit <-> Explicit: in place
		c := d.inCellAt(b2, u)
		if c.Class() == 0 {
			c.N = c.N&^stateMask | uint32(target)
		} else {
			l[idx].state = target
		}
	}

	// Entering Explicit: insert v2 into the parent's explicit-children
	// list at its sorted position.
	if target == Explicit {
		d.numExplicit++
		d.explByLabel[u]++
		if v != graph.NoVertex {
			c := filling(d.outCellAt(d.ensureSlot(v), u))
			if c.Len() == 0 {
				*c = inlineCell(v2, Null)
			} else {
				op, _ := slices.BinarySearch(d.children(c), v2)
				d.outs.Insert(c, op, v2, c.A[0])
			}
		}
	}
	return true
}

// InDegree returns the number of stored (implicit or explicit) incoming
// edges of v2 labeled u — the paper's |GetImplAndExplEdges(v2, u, in)|.
//
//tf:hotpath
func (d *DCG) InDegree(v2 graph.VertexID, u graph.VertexID) int {
	return d.inCell(v2, u).Len()
}

// AppendInParents appends the parents of v2's stored incoming edges
// labeled u to dst, optionally restricted to explicit edges, in ascending
// vertex order, and returns the extended slice. The upward traversals
// climb these snapshots on the way to reporting matches, so their order
// must be reproducible for a given update stream — the sorted in-edge
// layout provides that without per-call sorting or allocation (callers
// pass a reusable scratch buffer).
//
//tf:hotpath
func (d *DCG) AppendInParents(dst []graph.VertexID, v2 graph.VertexID, u graph.VertexID, explicitOnly bool) []graph.VertexID {
	var one [1]inEdge
	for _, e := range d.inList(d.inCell(v2, u), &one) {
		if explicitOnly && e.state != Explicit {
			continue
		}
		dst = append(dst, e.parent)
	}
	return dst
}

// HasInLabel reports whether v has at least one stored incoming edge
// labeled u (the "u ∈ U" test in Algorithms 5 and 8).
//
//tf:hotpath
func (d *DCG) HasInLabel(v graph.VertexID, u graph.VertexID) bool {
	return d.InDegree(v, u) > 0
}

// ExplicitOut returns the number of outgoing EXPLICIT edges of v labeled u.
//
//tf:hotpath
func (d *DCG) ExplicitOut(v graph.VertexID, u graph.VertexID) int32 {
	if c := d.outCell(v, u); c != nil {
		return int32(c.Len())
	}
	return 0
}

// MatchAllChildren reports whether, for every child u' of u in the query
// tree, v has an outgoing EXPLICIT edge labeled u' (Algorithm 4). O(1) per
// child via the explicit-children list lengths.
//
//tf:hotpath
func (d *DCG) MatchAllChildren(v graph.VertexID, u graph.VertexID) bool {
	children := d.tree.Children[u]
	b := d.slot(v)
	if b < 0 {
		return len(children) == 0
	}
	for _, c := range children {
		if oc := d.outCellAt(b, c); oc == nil || oc.Len() == 0 {
			return false
		}
	}
	return true
}

// ExplicitChildrenList returns the explicit out-neighbors of v labeled u
// — the data vertices v' with GetState(v, u, v') == Explicit, ascending —
// as a slice owned by the DCG: callers must not mutate it and must not
// hold it across transitions. This is the candidate enumeration of
// SubgraphSearch (Algorithm 7, Line 15): candidates come straight from
// the DCG, never by filtering data-graph neighbors, which keeps the search
// cost proportional to the number of candidates, not the vertex degree.
//
//tf:hotpath
func (d *DCG) ExplicitChildrenList(v graph.VertexID, u graph.VertexID) []graph.VertexID {
	if c := d.outCell(v, u); c != nil {
		return d.children(c)
	}
	return nil
}

// RootCandidates returns the data vertices v_s whose root edge
// (v*_s, u_s, v_s) is stored, filtered to explicit ones when explicitOnly,
// in ascending vertex order. SubgraphSearch seeds from this slice, so a
// deterministic order here is a precondition for deterministic match
// emission.
func (d *DCG) RootCandidates(explicitOnly bool) []graph.VertexID {
	var out []graph.VertexID
	var one [1]inEdge
	for b := 0; b < len(d.cells); b = d.nextBlock(b) {
		c := d.inCellAt(int32(b), d.tree.Root)
		if c == nil {
			continue // the block's labels rule out u_s
		}
		l := d.inList(*c, &one)
		// Root edges come from graph.NoVertex, the maximum VertexID, so a
		// stored root edge is always the last in-edge. A free block's cells
		// are empty.
		if len(l) == 0 || l[len(l)-1].parent != graph.NoVertex {
			continue
		}
		if !explicitOnly || l[len(l)-1].state == Explicit {
			out = append(out, d.cells[b].A[0])
		}
	}
	slices.Sort(out)
	return out
}

// NumEdges returns the number of stored (implicit + explicit) DCG edges,
// including root edges from v*_s.
func (d *DCG) NumEdges() int { return d.numEdges }

// NumExplicit returns the number of stored EXPLICIT edges.
func (d *DCG) NumExplicit() int { return d.numExplicit }

// ExplicitCount returns the number of EXPLICIT edges labeled u — the exact
// count of explicit data paths ending at a u-candidate, used to drive the
// matching order (Section 4.1).
func (d *DCG) ExplicitCount(u graph.VertexID) int64 { return d.explByLabel[u] }

// SizeBytes returns the accounting size of the DCG for intermediate-result
// comparisons: stored edges times EdgeBytes.
func (d *DCG) SizeBytes() int64 { return int64(d.numEdges) * EdgeBytes }

// HeldBytes returns the heap bytes the DCG holds: the capacity of the slot
// table (pages and page table), the cell arena, the role classes with
// their free lists and both list arenas with theirs. The DCG owns no other
// heap object (the graph it reads labels from is not its own), so this is
// its real footprint (TestFootprint holds it against the runtime's own
// count).
func (d *DCG) HeldBytes() int64 {
	b := int64(unsafe.Sizeof(*d)) +
		arena.SliceBytes(d.pages) + arena.SliceBytes(d.slots) + arena.SliceBytes(d.cells) +
		arena.SliceBytes(d.classes) + arena.SliceBytes(d.explByLabel) +
		d.ins.HeldBytes() + d.outs.HeldBytes()
	for _, cl := range d.classes {
		b += arena.SliceBytes(cl.free)
	}
	return b
}

// slotStats returns block occupancy: blocks ever allocated and blocks
// currently on a free list. Tests use it to pin recycling behavior.
func (d *DCG) slotStats() (blocks, free int) {
	for b := 0; b < len(d.cells); b = d.nextBlock(b) {
		blocks++
	}
	for _, cl := range d.classes {
		free += len(cl.free)
	}
	return blocks, free
}

// validateSlots checks the slot table against the block headers starts
// (offset -> vertex): the shared page is all -1, every other page has
// entries of its own — the pages tile slots after the shared one, each
// owned by one page-table entry — and every slot set in them is a block
// of that very vertex.
//
//tf:map-ok test-support invariant checker, never on the eval path
func (d *DCG) validateSlots(starts map[int32]graph.VertexID) error {
	if len(d.slots) == 0 && len(d.pages) == 0 {
		return nil
	}
	if len(d.slots) == 0 || len(d.slots)%pageSize != 0 {
		return fmt.Errorf("dcg: the slot table holds %d entries, no whole number of pages", len(d.slots))
	}
	for i, b := range d.slots[:pageSize] {
		if b != -1 {
			return fmt.Errorf("dcg: slot %d of the shared empty page holds %d", i, b)
		}
	}
	owned := make([]bool, len(d.slots)/pageSize) // by page of slots
	owned[0] = true                              // the shared page
	for p, off := range d.pages {
		if off == 0 {
			continue
		}
		k := int(off) / pageSize
		if off%pageSize != 0 || k >= len(owned) || owned[k] {
			return fmt.Errorf("dcg: page %d has slot offset %d, which is no page of its own", p, off)
		}
		owned[k] = true
		for i, b := range d.slots[off : off+pageSize] {
			v := graph.VertexID(p<<pageShift | i)
			if hv, ok := starts[b]; b >= 0 && (!ok || hv != v) || b < -1 {
				return fmt.Errorf("dcg: slot of vertex %d holds %d, which is no block of that vertex", v, b)
			}
		}
	}
	if slices.Contains(owned, false) {
		return fmt.Errorf("dcg: the slot table's %d pages are not the shared page plus one per page-table entry", len(owned))
	}
	return nil
}

// Validate checks internal consistency: the blocks (a live block's vertex
// points back at it through the slot table, its class is the vertex's
// label set and it is not empty; a free block is empty and on its class's
// free list exactly once; every block lies inside the arena), the slot
// table (see validateSlots), the sorted-in-edge invariant,
// the explicit-children lists against the in-edge states, the cell headers
// and the list arenas (every list block owned by exactly one cell or on
// exactly one free list), and the per-label and total counters must all
// agree with the stored edges. It returns the first inconsistency found.
// Tests and the failure-injection suite call this after every update.
//
//tf:map-ok test-support invariant checker, never on the eval path
func (d *DCG) Validate() error {
	// Headers first: the cell checks below read cells through them.
	starts := make(map[int32]graph.VertexID) // block offset -> header vertex
	freeBlocks := 0
	for b := 0; b < len(d.cells); b = d.nextBlock(b) {
		h := d.cells[b]
		if int(h.N) >= len(d.classes) || d.classes[h.N].width == 0 {
			return fmt.Errorf("dcg: block %d names label set %d, which has no role class", b, h.N)
		}
		if d.nextBlock(b) > len(d.cells) {
			return fmt.Errorf("dcg: block %d of width %d overruns the %d-cell arena", b, d.classes[h.N].width, len(d.cells))
		}
		starts[int32(b)] = h.A[0]
		if h.A[0] == graph.NoVertex {
			freeBlocks++
			continue
		}
		if v := h.A[0]; d.slot(v) != int32(b) {
			return fmt.Errorf("dcg: block %d holds vertex %d but its slot does not point back", b, v)
		}
		if set := d.g.LabelSet(h.A[0]); set != h.N {
			return fmt.Errorf("dcg: block %d of vertex %d has the class of label set %d, the vertex carries set %d", b, h.A[0], h.N, set)
		}
	}
	if err := d.validateSlots(starts); err != nil {
		return err
	}
	onFree := make(map[int32]bool, freeBlocks)
	for set, cl := range d.classes {
		for _, f := range cl.free {
			if v, ok := starts[int32(f)]; !ok || v != graph.NoVertex {
				return fmt.Errorf("dcg: free list of label set %d names offset %d, which is no free block", set, f)
			}
			if d.cells[f].N != uint32(set) {
				return fmt.Errorf("dcg: free block %d of label set %d is on the free list of set %d", f, d.cells[f].N, set)
			}
			if onFree[int32(f)] {
				return fmt.Errorf("dcg: block %d on a free list twice", f)
			}
			onFree[int32(f)] = true
		}
	}
	if len(onFree) != freeBlocks {
		return fmt.Errorf("dcg: %d free blocks, %d on free lists", freeBlocks, len(onFree))
	}

	edges, explicit := 0, 0
	explByLabel := make([]int64, d.nq)
	var inBlocks, outBlocks []arena.Span
	var one [1]inEdge
	for b := 0; b < len(d.cells); b = d.nextBlock(b) {
		v2 := d.cells[b].A[0]
		stored := 0
		for u := range graph.VertexID(d.nq) {
			if c := d.inCellAt(int32(b), u); c != nil {
				cb, err := arena.CheckCell(*c)
				if err != nil {
					return fmt.Errorf("dcg: block %d in-cell u%d: %v", b, u, err)
				}
				if cb.Size != 0 {
					inBlocks = append(inBlocks, cb)
				}
				stored += c.Len()
				l := d.inList(*c, &one)
				for i, e := range l {
					if i > 0 && l[i-1].parent >= e.parent {
						return fmt.Errorf("dcg: in-edges of (%d, u%d) not strictly sorted at %d", v2, u, i)
					}
					if e.state != Implicit && e.state != Explicit {
						return fmt.Errorf("dcg: stored edge (%d,%d,%d) in state %d", e.parent, u, v2, e.state)
					}
					edges++
					if e.state != Explicit {
						continue
					}
					explicit++
					explByLabel[u]++
					if e.parent == graph.NoVertex {
						continue
					}
					if _, ok := slices.BinarySearch(d.ExplicitChildrenList(e.parent, u), v2); !ok {
						return fmt.Errorf("dcg: explicit edge (%d,%d,%d) missing from parent's children", e.parent, u, v2)
					}
				}
			}
			if c := d.outCellAt(int32(b), u); c != nil {
				cb, err := arena.CheckCell(*c)
				if err != nil {
					return fmt.Errorf("dcg: block %d out-cell u%d: %v", b, u, err)
				}
				if cb.Size != 0 {
					outBlocks = append(outBlocks, cb)
				}
				stored += c.Len()
				kids := d.children(c)
				for i, k := range kids {
					if i > 0 && kids[i-1] >= k {
						return fmt.Errorf("dcg: explicit children of (%d, u%d) not strictly sorted at %d", v2, u, i)
					}
					if d.GetState(v2, u, k) != Explicit {
						return fmt.Errorf("dcg: out-adjacency (%d,%d,%d) not explicit", v2, u, k)
					}
				}
			}
		}
		switch {
		case v2 == graph.NoVertex && stored != 0:
			return fmt.Errorf("dcg: free block %d holds %d entries", b, stored)
		case v2 != graph.NoVertex && stored == 0:
			return fmt.Errorf("dcg: empty block %d (vertex %d) was not recycled", b, v2)
		}
	}
	if err := d.ins.Validate("in-edge", inBlocks); err != nil {
		return fmt.Errorf("dcg: %w", err)
	}
	if err := d.outs.Validate("children", outBlocks); err != nil {
		return fmt.Errorf("dcg: %w", err)
	}
	if edges != d.numEdges {
		return fmt.Errorf("dcg: numEdges=%d, stored=%d", d.numEdges, edges)
	}
	if explicit != d.numExplicit {
		return fmt.Errorf("dcg: numExplicit=%d, stored=%d", d.numExplicit, explicit)
	}
	for u := 0; u < d.nq; u++ {
		if explByLabel[u] != d.explByLabel[u] {
			return fmt.Errorf("dcg: explByLabel[%d]=%d, stored=%d", u, d.explByLabel[u], explByLabel[u])
		}
	}
	return nil
}

// SnapEdge is one stored DCG edge with its state, as returned by Snapshot.
type SnapEdge struct {
	Key   EdgeKey
	State State
}

// Snapshot returns all stored edges sorted by (From, QV, To) — root edges
// from v*_s last, since graph.NoVertex is the maximum VertexID. The result
// is built in one pre-sized pass and is deterministic for a given DCG
// content, so byte/deep comparisons between snapshots need no
// canonicalization. Used by the oracle-equivalence and determinism tests.
func (d *DCG) Snapshot() []SnapEdge {
	out := make([]SnapEdge, 0, d.numEdges)
	var one [1]inEdge
	for b := 0; b < len(d.cells); b = d.nextBlock(b) {
		for u := range graph.VertexID(d.nq) {
			c := d.inCellAt(int32(b), u)
			if c == nil {
				continue
			}
			for _, e := range d.inList(*c, &one) {
				out = append(out, SnapEdge{
					Key:   EdgeKey{From: e.parent, QV: graph.VertexID(u), To: d.cells[b].A[0]},
					State: e.state,
				})
			}
		}
	}
	slices.SortFunc(out, func(a, b SnapEdge) int {
		if c := cmp.Compare(a.Key.From, b.Key.From); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Key.QV, b.Key.QV); c != 0 {
			return c
		}
		return cmp.Compare(a.Key.To, b.Key.To)
	})
	return out
}

// SnapshotMap returns all stored edges as a map, the shape ComputeSpec
// produces — a convenience for oracle comparisons off the hot path.
//
//tf:oracle-ok cold oracle-comparison helper
func (d *DCG) SnapshotMap() map[EdgeKey]State {
	m := make(map[EdgeKey]State, d.numEdges)
	for _, e := range d.Snapshot() {
		m[e.Key] = e.State
	}
	return m
}

// EdgeKey identifies one DCG edge: (From, QV, To) where QV is the
// query-vertex label and From is graph.NoVertex for root edges.
type EdgeKey struct {
	From graph.VertexID
	QV   graph.VertexID
	To   graph.VertexID
}

// String formats the key like the paper's figures, e.g. "(v2, u3, v104)".
func (k EdgeKey) String() string {
	if k.From == graph.NoVertex {
		return fmt.Sprintf("(v*, u%d, v%d)", k.QV, k.To)
	}
	return fmt.Sprintf("(v%d, u%d, v%d)", k.From, k.QV, k.To)
}
