package graph

// Window is the table of edge updates one evaluation window of the
// multi-query scheduler has applied or scheduled (DESIGN.md §11): every
// insertion of the window is already in the graph and every deletion is
// still in it, and the table records, per edge, the batch index at which it
// was born or died. An engine evaluating the update at index `at` reads the
// graph through it and sees exactly the state sequential evaluation would
// show: an insertion born after `at` is hidden, a deletion that died before
// `at` is hidden, and a deletion at `at` itself is still visible (deletions
// evaluate before removal). An edge is in the table at most once — a second
// touch of the same edge ends the window.
//
// The table is open-addressed and its entries carry the epoch of the window
// that wrote them, so ending a window clears nothing and stale entries count
// as empty. It is at most half full, and doubles only when one window
// outgrows that — a window is no longer than its batch. Beside it sits a
// 4 096-bit filter over the (endpoint, label) pairs the window touched: an
// adjacency list whose pair is not in the filter holds no hidden edge and
// needs no per-neighbour probe.
//
// The scheduler writes the table between windows' evaluations (Add, Reset);
// inside one, any number of workers read it (Has, MayHide, Hidden).
type Window struct {
	tab     []windowEdge // length a power of two
	epoch   uint32
	n       int        // entries of the current epoch
	touched [64]uint64 // (endpoint, label) filter; all zero when n == 0
}

type windowEdge struct {
	e     Edge
	epoch uint32
	idx   int32 // batch index of the update
	del   bool  // the update deletes e (otherwise it inserted it)
}

// Len reports the number of edges the current window holds.
func (w *Window) Len() int { return w.n }

// Reset ends the window: the table is empty again.
//
//tf:hotpath
func (w *Window) Reset() {
	if w.n != 0 {
		w.n = 0
		w.touched = [64]uint64{}
	}
	if w.epoch++; w.epoch == 0 { // wrapped: entries of 2^32 windows ago would look current
		clear(w.tab)
		w.epoch = 1
	}
}

// find returns the table position of e in the current window, or the empty
// position it belongs at. The table must be non-empty.
//
//tf:hotpath
func (w *Window) find(e Edge) (pos int, found bool) {
	h := (uint64(e.From)<<32|uint64(e.To))*0x9E3779B97F4A7C15 ^ uint64(e.Label)*0xC2B2AE3D27D4EB4F
	mask := len(w.tab) - 1
	for pos = int(h>>32) & mask; w.tab[pos].epoch == w.epoch; pos = (pos + 1) & mask {
		if w.tab[pos].e == e {
			return pos, true
		}
	}
	return pos, false
}

// Has reports whether the window already touched e.
//
//tf:hotpath
func (w *Window) Has(e Edge) bool {
	if w.n == 0 {
		return false
	}
	_, found := w.find(e)
	return found
}

// Add records that the update at batch index idx inserted e (already in the
// graph) or, with del, deletes it (still in the graph). The window must not
// hold e yet.
//
//tf:hotpath
func (w *Window) Add(e Edge, idx int32, del bool) {
	if w.epoch == 0 {
		w.epoch = 1 // zero value: epoch 0 marks empty entries
	}
	if 2*(w.n+1) > len(w.tab) {
		old := w.tab
		w.tab = make([]windowEdge, max(64, 2*len(old))) //tf:alloc-ok doubles until the longest window fits, then never
		for _, r := range old {
			if r.epoch == w.epoch {
				pos, _ := w.find(r.e)
				w.tab[pos] = r
			}
		}
	}
	pos, _ := w.find(e)
	w.tab[pos] = windowEdge{e: e, epoch: w.epoch, idx: idx, del: del}
	w.n++
	w.touch(e.From, e.Label)
	w.touch(e.To, e.Label)
}

// filterBit maps an (endpoint, label) pair to its filter bit. Vertex IDs
// are dense small integers, so the low bits spread them; the label is mixed
// in so that a hub touched under one label keeps its other lists unprobed.
//
//tf:hotpath
func filterBit(v VertexID, l Label) (word int, bit uint64) {
	h := (uint32(v) + uint32(l)*0x9E3779B1) & 4095
	return int(h >> 6), 1 << (h & 63)
}

//tf:hotpath
func (w *Window) touch(v VertexID, l Label) {
	word, bit := filterBit(v, l)
	w.touched[word] |= bit
}

// MayHide reports whether v's adjacency list for label l (either direction)
// may contain an edge of the window. It has no false negatives.
//
//tf:hotpath
func (w *Window) MayHide(v VertexID, l Label) bool {
	word, bit := filterBit(v, l)
	return w.touched[word]&bit != 0
}

// Hidden reports whether the evaluation of the update at batch index at
// must not see e, an edge present in the graph: e was inserted by a later
// update of the window, or deleted by an earlier one.
//
//tf:hotpath
func (w *Window) Hidden(e Edge, at int32) bool {
	if w.n == 0 {
		return false
	}
	pos, found := w.find(e)
	if !found {
		return false
	}
	if r := &w.tab[pos]; r.del {
		return r.idx < at // died before at
	}
	return w.tab[pos].idx > at // born after at
}
