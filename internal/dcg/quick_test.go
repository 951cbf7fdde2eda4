package dcg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"turboflux/internal/graph"
)

// TestQuickTransitionSequences drives random state-transition sequences
// through a DCG and checks that every counter invariant holds afterwards
// (Validate recomputes them from the stored maps).
func TestQuickTransitionSequences(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(tr, everyLabel)
		verts := []graph.VertexID{0, 2, 4, 5, 104, graph.NoVertex}
		states := []State{Null, Implicit, Explicit}
		for i := 0; i < int(steps); i++ {
			from := verts[rng.Intn(len(verts))]
			to := verts[rng.Intn(len(verts)-1)] // NoVertex never a target
			u := graph.VertexID(rng.Intn(tr.Q.NumVertices()))
			if u == tr.Root {
				from = graph.NoVertex // root edges come only from v*_s
			}
			d.MakeTransition(from, u, to, states[rng.Intn(len(states))])
		}
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTransitionCounts: after any transition sequence, the number of
// stored edges equals the number of snapshot entries and never exceeds the
// paper's bound |V(q)|·(|E(g)|+|V(g)|) when transitions are restricted to
// edges that exist in the data graph.
func TestQuickTransitionCounts(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)
	dataEdges := g.Edges()
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(tr, everyLabel)
		states := []State{Null, Implicit, Explicit}
		for i := 0; i < int(steps); i++ {
			e := dataEdges[rng.Intn(len(dataEdges))]
			u := graph.VertexID(1 + rng.Intn(tr.Q.NumVertices()-1))
			d.MakeTransition(e.From, u, e.To, states[rng.Intn(len(states))])
		}
		snap := d.Snapshot()
		if len(snap) != d.NumEdges() {
			return false
		}
		bound := tr.Q.NumVertices() * (g.NumEdges() + g.NumVertices())
		return d.NumEdges() <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIdempotence: re-applying a transition to the current state is
// always a no-op and never disturbs counters.
func TestQuickIdempotence(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)
	f := func(u8 uint8, s8 uint8) bool {
		d := New(tr, everyLabel)
		u := graph.VertexID(u8 % 5)
		target := State(s8 % 3)
		from := graph.VertexID(2)
		if u == tr.Root {
			from = graph.NoVertex // root edges come only from v*_s
		}
		d.MakeTransition(from, u, 4, target)
		before := d.NumEdges()
		beforeExpl := d.NumExplicit()
		if d.MakeTransition(from, u, 4, target) {
			return false // must report no change
		}
		return d.NumEdges() == before && d.NumExplicit() == beforeExpl && d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
