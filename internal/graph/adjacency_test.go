package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"turboflux/internal/arena"
)

// validate checks the adjacency storage: every head is in canonical form
// (one label with one neighbor inline; a bucket block holds two or more
// buckets, or one whose list is a block), buckets hold distinct labels and
// non-empty lists, both arenas are tiled exactly by the blocks heads and
// cells own plus their free lists, every out-edge is mirrored by an
// in-edge, and the counters agree with the stored edges.
func (g *Graph) validate() error {
	var bucketBlocks, nbrBlocks []arena.Span
	perLabel := map[Label]int{}
	mirror := map[Edge]int{}
	edges := 0
	for id := range g.verts {
		vd := &g.verts[id]
		for dir, h := range []*head{&vd.out, &vd.in} {
			if vd.set == 0 && *h != (head{}) {
				return fmt.Errorf("absent vertex %d has adjacency %+v", id, *h)
			}
			if h.n&headInline != 0 {
				if h.n&(1<<headLabelShift-1) != headInline {
					return fmt.Errorf("vertex %d dir %d: inline head with stray bits %#x", id, dir, h.n)
				}
			} else if h.n != 0 {
				off, n, k := h.block()
				if h.n&(1<<headCountShift-1)&^(headClassMask<<headClassShift) != 0 {
					return fmt.Errorf("vertex %d dir %d: block head with stray bits %#x", id, dir, h.n)
				}
				if k > arena.MaxClass || n < 1 || n > 1<<k {
					return fmt.Errorf("vertex %d dir %d: block of class %d holds %d buckets", id, dir, k, n)
				}
				bucketBlocks = append(bucketBlocks, arena.Span{Off: off, Size: 1 << k})
				bs := g.bucketsOf(h)
				if n == 1 && bs[0].c.Class() == 0 {
					return fmt.Errorf("vertex %d dir %d: one bucket with one neighbor not inline", id, dir)
				}
				for i, b := range bs {
					sp, err := arena.CheckCell(b.c)
					if err != nil {
						return fmt.Errorf("vertex %d dir %d bucket %d: %v", id, dir, i, err)
					}
					if b.c.Len() == 0 {
						return fmt.Errorf("vertex %d dir %d: emptied bucket %d of label %d kept", id, dir, i, b.label)
					}
					if sp.Size != 0 {
						nbrBlocks = append(nbrBlocks, sp)
					}
					for _, o := range bs[:i] {
						if o.label == b.label {
							return fmt.Errorf("vertex %d dir %d: label %d has two buckets", id, dir, b.label)
						}
					}
				}
			}
			g.forEachLabel(h, func(l Label, nbrs []VertexID) {
				for _, w := range nbrs {
					e := Edge{From: VertexID(id), Label: l, To: w}
					if dir == 1 {
						e = e.Reverse()
					} else {
						edges++
						perLabel[l]++
					}
					mirror[e] += 1 - 2*dir
				}
			})
		}
	}
	if err := g.buckets.Validate("bucket", bucketBlocks); err != nil {
		return err
	}
	if err := g.nbrs.Validate("neighbor", nbrBlocks); err != nil {
		return err
	}
	for e, d := range mirror {
		if d != 0 {
			return fmt.Errorf("edge %v stored %+d more times out than in", e, d)
		}
	}
	if edges != g.numEdges {
		return fmt.Errorf("numEdges=%d, stored=%d", g.numEdges, edges)
	}
	for l, c := range g.edgeCount {
		if c != perLabel[Label(l)] {
			return fmt.Errorf("edgeCount[%d]=%d, stored=%d", l, c, perLabel[Label(l)])
		}
	}
	return nil
}

// refAdj is the reference model of the adjacency lists: one slice per
// (vertex, label, direction), appended on insert and swap-removed on
// delete — the order contract the engines enumerate.
type refAdj struct {
	lists map[refKey][]VertexID
	count map[Label]int
	edges int
}

type refKey struct {
	v   VertexID
	l   Label
	out bool
}

func (r *refAdj) has(from VertexID, l Label, to VertexID) bool {
	return slices.Contains(r.lists[refKey{from, l, true}], to)
}

func (r *refAdj) insert(from VertexID, l Label, to VertexID) bool {
	if r.has(from, l, to) {
		return false
	}
	ko, ki := refKey{from, l, true}, refKey{to, l, false}
	r.lists[ko] = append(r.lists[ko], to)
	r.lists[ki] = append(r.lists[ki], from)
	r.count[l]++
	r.edges++
	return true
}

func swapRemove(s []VertexID, v VertexID) []VertexID {
	i := slices.Index(s, v)
	s[i] = s[len(s)-1]
	return s[:len(s)-1]
}

func (r *refAdj) delete(from VertexID, l Label, to VertexID) bool {
	if !r.has(from, l, to) {
		return false
	}
	ko, ki := refKey{from, l, true}, refKey{to, l, false}
	r.lists[ko] = swapRemove(r.lists[ko], to)
	r.lists[ki] = swapRemove(r.lists[ki], from)
	r.count[l]--
	r.edges--
	return true
}

// compareList fails unless g's list for k equals the model's, element for
// element.
func compareList(t *testing.T, what string, g *Graph, r *refAdj, k refKey) {
	t.Helper()
	got := g.InNeighbors(k.v, k.l)
	if k.out {
		got = g.OutNeighbors(k.v, k.l)
	}
	if want := r.lists[k]; !slices.Equal(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s: list %+v = %v, model %v", what, k, got, want)
	}
}

// TestAdjacencyModel is the differential test of the adjacency storage
// against refAdj: random insert/delete/declare streams over a few hundred
// vertices around one hub, with labels that come and go, so lists climb
// and drain through the arena classes, buckets are dropped and re-created,
// and heads move between empty, inline and block. Every step compares both
// touched lists, HasEdge and the counters; the end compares every list,
// Clone's lists and the storage invariants. A second phase checks
// ForEachEdge's order on an insertion-only graph.
func TestAdjacencyModel(t *testing.T) {
	seeds := int64(12)
	steps := 6000
	if testing.Short() {
		seeds, steps = 3, 2000
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		r := &refAdj{lists: map[refKey][]VertexID{}, count: map[Label]int{}}
		const hub, nv = VertexID(7), 300
		labels := 2 + rng.Intn(6)
		pick := func() VertexID {
			if rng.Intn(3) == 0 {
				return hub
			}
			return VertexID(rng.Intn(nv))
		}
		for step := 0; step < steps; step++ {
			if step%1000 == 999 {
				labels = 1 + rng.Intn(8) // label churn: the live label range moves
			}
			from, to, l := pick(), pick(), Label(rng.Intn(labels))
			what := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op == 0:
				v := VertexID(rng.Intn(2 * nv))
				had := g.HasVertex(v)
				err := g.AddVertex(v, Label(rng.Intn(4)))
				if (err == nil) == had {
					t.Fatalf("%s: AddVertex(%d) = %v with vertex present %v", what, v, err, had)
				}
				continue
			case op < 5:
				if got, want := g.DeleteEdge(from, l, to), r.delete(from, l, to); got != want {
					t.Fatalf("%s: DeleteEdge(%d,%d,%d) = %v, model %v", what, from, l, to, got, want)
				}
			default:
				if got, want := g.InsertEdge(from, l, to), r.insert(from, l, to); got != want {
					t.Fatalf("%s: InsertEdge(%d,%d,%d) = %v, model %v", what, from, l, to, got, want)
				}
			}
			compareList(t, what, g, r, refKey{from, l, true})
			compareList(t, what, g, r, refKey{to, l, false})
			if g.HasEdge(from, l, to) != r.has(from, l, to) {
				t.Fatalf("%s: HasEdge(%d,%d,%d) = %v", what, from, l, to, !r.has(from, l, to))
			}
			if g.EdgeCount(l) != r.count[l] || g.NumEdges() != r.edges {
				t.Fatalf("%s: EdgeCount(%d)=%d NumEdges=%d, model %d/%d", what, l, g.EdgeCount(l), g.NumEdges(), r.count[l], r.edges)
			}
		}
		if err := g.validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c := g.Clone()
		if err := c.validate(); err != nil {
			t.Fatalf("seed %d clone: %v", seed, err)
		}
		for v := VertexID(0); v < 2*nv; v++ {
			deg := 0
			for l := Label(0); l < 8; l++ {
				for _, out := range []bool{true, false} {
					k := refKey{v, l, out}
					compareList(t, fmt.Sprintf("seed %d end", seed), g, r, k)
					compareList(t, fmt.Sprintf("seed %d clone", seed), c, r, k)
					if out {
						deg += len(r.lists[k])
					}
				}
			}
			if g.OutDegree(v) != deg {
				t.Fatalf("seed %d: OutDegree(%d) = %d, model %d", seed, v, g.OutDegree(v), deg)
			}
		}
	}

	// Insertion only: ForEachEdge walks vertices ascending, each vertex's
	// labels in first-insertion order, each list in insertion order.
	rng := rand.New(rand.NewSource(99))
	g := New()
	type firstSeen struct {
		labels []Label
		nbrs   map[Label][]VertexID
	}
	model := map[VertexID]*firstSeen{}
	for i := 0; i < 5000; i++ {
		from, l, to := VertexID(rng.Intn(200)), Label(rng.Intn(6)), VertexID(rng.Intn(200))
		if rng.Intn(4) == 0 {
			from = 3
		}
		if !g.InsertEdge(from, l, to) {
			continue
		}
		fs := model[from]
		if fs == nil {
			fs = &firstSeen{nbrs: map[Label][]VertexID{}}
			model[from] = fs
		}
		if _, ok := fs.nbrs[l]; !ok {
			fs.labels = append(fs.labels, l)
		}
		fs.nbrs[l] = append(fs.nbrs[l], to)
	}
	var want []Edge
	for v := VertexID(0); v < 200; v++ {
		if fs := model[v]; fs != nil {
			for _, l := range fs.labels {
				for _, w := range fs.nbrs[l] {
					want = append(want, Edge{From: v, Label: l, To: w})
				}
			}
		}
	}
	if got := g.Edges(); !slices.Equal(got, want) {
		t.Fatalf("ForEachEdge order on an insertion-only graph differs from first-insertion order (%d/%d edges)", len(got), len(want))
	}
}

// TestAdjacencyChurnAllocFree: once the arenas' free lists hold their
// working blocks, insert/delete churn around degrees 0-2 — heads moving
// between empty, inline and bucket blocks, lists between inline and
// blocks — allocates nothing.
func TestAdjacencyChurnAllocFree(t *testing.T) {
	g := New()
	for v := VertexID(0); v < 8; v++ {
		g.EnsureVertex(v)
	}
	cycle := func() {
		for v := VertexID(1); v < 8; v++ {
			g.InsertEdge(0, 1, v)
			g.InsertEdge(v, 2, 0)
			g.InsertEdge(v, 1, v%3)
			g.InsertEdge(v, 3, (v+1)%8)
		}
		for v := VertexID(1); v < 8; v++ {
			g.DeleteEdge(v, 1, v%3)
			g.DeleteEdge(0, 1, v)
			g.DeleteEdge(v, 3, (v+1)%8)
			g.DeleteEdge(v, 2, 0)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("degree 0-2 churn allocates %v per cycle, want 0", avg)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("%d edges left after the cycle", g.NumEdges())
	}
	if err := g.validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGraphChurnHeldBytes: edge churn over a fixed vertex-ID range, run for
// ten times the length of the stream that built the graph, at a live size
// held between half and all of 8192 edges, leaves HeldBytes flat — the free lists serve every block churn needs — while growing the
// ID range costs the documented 20 B per vertex ID (the record).
func TestGraphChurnHeldBytes(t *testing.T) {
	if s := unsafe.Sizeof(vertexData{}); s != 20 {
		t.Fatalf("a vertex record is %d B, want 20", s)
	}
	rng := rand.New(rand.NewSource(3))
	g := New()
	const nv, stream, size = 4096, 40_000, 8192
	type edge struct {
		from VertexID
		l    Label
		to   VertexID
	}
	var live []edge
	step := func() {
		if len(live) >= size || len(live) > size/2 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			g.DeleteEdge(e.from, e.l, e.to)
			return
		}
		e := edge{VertexID(rng.Intn(nv)), Label(rng.Intn(4)), VertexID(rng.Intn(nv))}
		if rng.Intn(8) == 0 {
			e.from = 0 // a hub
		}
		if g.InsertEdge(e.from, e.l, e.to) {
			live = append(live, e)
		}
	}
	for range stream {
		step()
	}
	built := g.HeldBytes()
	for range 10 * stream {
		step()
	}
	churned := g.HeldBytes()
	if err := g.validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d live edges over %d IDs: HeldBytes %d after the build, %d after 10x churn", len(live), nv, built, churned)
	if churned > built+built/20 {
		t.Errorf("HeldBytes grew from %d to %d under churn at a stable size", built, churned)
	}

	// A vertex far past the table grows it to exactly the new range.
	const far = 1 << 20
	g.EnsureVertex(far - 1)
	slope := float64(g.HeldBytes()-churned) / float64(far-nv)
	t.Logf("growing the ID range from %d to %d: %.2f B per ID", nv, far, slope)
	if slope < 20 || slope > 21 {
		t.Errorf("growing the ID range costs %.2f B per ID, want the record's 20", slope)
	}
}

// TestMaxVertexID: the graph refuses an ID past MaxVertexID instead of
// sizing its dense table by it.
func TestMaxVertexID(t *testing.T) {
	g := New()
	if err := g.AddVertex(MaxVertexID + 1); err == nil {
		t.Fatal("AddVertex accepted an ID past MaxVertexID")
	}
	if err := g.AddVertex(NoVertex); err == nil {
		t.Fatal("AddVertex accepted NoVertex")
	}
	if CheckVertexID(MaxVertexID) != nil || CheckVertexID(MaxVertexID+1) == nil {
		t.Fatal("CheckVertexID disagrees with MaxVertexID")
	}
	if len(g.verts) != 0 {
		t.Fatalf("refused IDs grew the vertex table to %d records", len(g.verts))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("InsertEdge accepted an ID past MaxVertexID")
			}
		}()
		g.InsertEdge(1, 0, MaxVertexID+1)
	}()
}
