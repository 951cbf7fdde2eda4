package dcg

import (
	"math/rand"
	"slices"
	"testing"

	"turboflux/internal/graph"
)

// arenaModel drives a DCG and a map model through the same transitions
// and compares them: every step Validate (cell headers, arena tiling,
// counters) and the touched edge, every check() the whole content.
type arenaModel struct {
	t     *testing.T
	d     *DCG
	model map[EdgeKey]State
	steps int
}

func (m *arenaModel) set(from, u, to graph.VertexID, s State) {
	m.t.Helper()
	k := EdgeKey{From: from, QV: u, To: to}
	if changed := m.d.MakeTransition(from, u, to, s); changed != (m.model[k] != s) {
		m.t.Fatalf("step %d: MakeTransition%v -> %v reported changed=%v over model state %v", m.steps, k, s, changed, m.model[k])
	}
	if s == Null {
		delete(m.model, k)
	} else {
		m.model[k] = s
	}
	m.steps++
	if err := m.d.Validate(); err != nil {
		m.t.Fatalf("step %d (%v -> %v): %v", m.steps, k, s, err)
	}
	if got := m.d.GetState(from, u, to); got != s {
		m.t.Fatalf("step %d: GetState%v = %v, want %v", m.steps, k, got, s)
	}
}

// check compares stored edges, in-parent lists and explicit-children lists
// with what the model implies.
func (m *arenaModel) check() {
	m.t.Helper()
	snap := m.d.Snapshot()
	if len(snap) != len(m.model) || m.d.NumEdges() != len(m.model) {
		m.t.Fatalf("step %d: %d snapshot edges, NumEdges %d, model %d", m.steps, len(snap), m.d.NumEdges(), len(m.model))
	}
	type list struct{ v, u graph.VertexID }
	parents, children := map[list][]graph.VertexID{}, map[list][]graph.VertexID{}
	for _, e := range snap {
		if m.model[e.Key] != e.State {
			m.t.Fatalf("step %d: snapshot has %v in state %v, model %v", m.steps, e.Key, e.State, m.model[e.Key])
		}
		in := list{e.Key.To, e.Key.QV}
		parents[in] = append(parents[in], e.Key.From)
		if e.State == Explicit && e.Key.From != graph.NoVertex {
			out := list{e.Key.From, e.Key.QV}
			children[out] = append(children[out], e.Key.To)
		}
	}
	for k, want := range parents {
		slices.Sort(want)
		if got := m.d.AppendInParents(nil, k.v, k.u, false); !slices.Equal(got, want) {
			m.t.Fatalf("step %d: AppendInParents(%d, u%d) = %v, want %v", m.steps, k.v, k.u, got, want)
		}
		if m.d.InDegree(k.v, k.u) != len(want) {
			m.t.Fatalf("step %d: InDegree(%d, u%d) = %d, want %d", m.steps, k.v, k.u, m.d.InDegree(k.v, k.u), len(want))
		}
	}
	for k, want := range children {
		slices.Sort(want)
		if got := m.d.ExplicitChildrenList(k.v, k.u); !slices.Equal(got, want) {
			m.t.Fatalf("step %d: ExplicitChildrenList(%d, u%d) = %v, want %v", m.steps, k.v, k.u, got, want)
		}
		if int(m.d.ExplicitOut(k.v, k.u)) != len(want) {
			m.t.Fatalf("step %d: ExplicitOut(%d, u%d) = %d, want %d", m.steps, k.v, k.u, m.d.ExplicitOut(k.v, k.u), len(want))
		}
	}
}

// noise makes n random transitions among a few small vertices, so blocks of
// other lists and recycled slots interleave with the hub's.
func (m *arenaModel) noise(rng *rand.Rand, n int) {
	states := []State{Null, Null, Implicit, Explicit}
	for i := 0; i < n; i++ {
		from := graph.VertexID(rng.Intn(12))
		if rng.Intn(6) == 0 {
			from = graph.NoVertex
		}
		u := graph.VertexID(rng.Intn(m.d.nq))
		if u == m.d.tree.Root {
			from = graph.NoVertex // root edges come only from v*_s
		}
		m.set(from, u, graph.VertexID(rng.Intn(12)), states[rng.Intn(len(states))])
	}
}

// TestArenaModel is the property test of the cell/arena storage: random
// transition sequences against a map model, around one hub whose in-list
// (label u1) and explicit-children list (label u2) climb through at least
// six block classes and drain back to inline and to empty, twice, so the
// second climb runs on recycled blocks and a recycled slot.
func TestArenaModel(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &arenaModel{t: t, d: New(tr, everyLabel), model: map[EdgeKey]State{}}
		d := m.d
		const hub, n = graph.VertexID(500), 150 // 150 entries need a class-8 block
		hubCells := func() (in, out cell) {
			s := d.slot(hub)
			if s < 0 {
				return cell{}, cell{}
			}
			return *d.inCellAt(s, 1), *d.outCellAt(s, 2)
		}
		for round := 0; round < 2; round++ {
			var maxIn, maxOut uint32
			order := rng.Perm(n)
			for i, j := range order {
				peer := graph.VertexID(1000 + j)
				m.set(peer, 1, hub, []State{Implicit, Explicit}[rng.Intn(2)])
				m.set(hub, 2, peer, Explicit)
				if rng.Intn(4) == 0 { // flip a stored edge of the hub in place
					flip := graph.VertexID(1000 + order[rng.Intn(i+1)])
					m.set(flip, 1, hub, []State{Implicit, Explicit}[rng.Intn(2)])
				}
				m.noise(rng, 2)
				in, out := hubCells()
				maxIn, maxOut = max(maxIn, in.class()), max(maxOut, out.class())
			}
			m.check()
			if maxIn < 6 || maxOut < 6 {
				t.Fatalf("seed %d round %d: hub lists reached classes %d/%d, want >= 6", seed, round, maxIn, maxOut)
			}
			// 1 hub + n peers + 12 noise vertices can be live at once; a
			// second climb that did not recycle would need n slots more.
			if slots, _ := d.slotStats(); slots > 1+n+12 {
				t.Fatalf("seed %d round %d: %d slots for at most %d live vertices", seed, round, slots, 1+n+12)
			}

			// Drain in another random order down to one entry each: both
			// lists must be back in their cells, their blocks on free lists.
			order = rng.Perm(n)
			for _, j := range order[1:] {
				peer := graph.VertexID(1000 + j)
				m.set(peer, 1, hub, Null)
				// Leaving Explicit empties the hub's children entry; Null
				// also releases the peer's slot.
				m.set(hub, 2, peer, []State{Implicit, Null}[rng.Intn(2)])
				m.noise(rng, 1)
			}
			m.check()
			if in, out := hubCells(); in.class() != 0 || in.len() != 1 || out.class() != 0 || out.len() != 1 {
				t.Fatalf("seed %d round %d: drained hub cells in=%+v out=%+v, want inline singletons", seed, round, in, out)
			}
			last := graph.VertexID(1000 + order[0])
			m.set(last, 1, hub, Null)
			m.set(hub, 2, last, Null)
			if d.slot(hub) >= 0 {
				t.Fatalf("seed %d round %d: empty hub kept its slot", seed, round)
			}
			// Clear the edges the drain left implicit, so the next round
			// starts from the same content.
			for j := 0; j < n; j++ {
				m.set(hub, 2, graph.VertexID(1000+j), Null)
			}
			m.check()
		}
		t.Logf("seed %d: %d steps, arenas %d in-edges / %d children, %d B held",
			seed, m.steps, len(d.ins.data), len(d.outs.data), d.HeldBytes())
	}
}

// TestArenaChurnAllocFree: once the arenas and free lists have reached
// their working size, growing a list through several classes and draining
// it again allocates nothing — blocks come from and go back to the free
// lists.
func TestArenaChurnAllocFree(t *testing.T) {
	g := paperData(t)
	tr := paperTree(t, g)
	d := New(tr, everyLabel)
	cycle := func() {
		for i := 0; i < 40; i++ {
			d.MakeTransition(graph.VertexID(100+i), 1, 7, Explicit)
		}
		for i := 0; i < 40; i++ {
			d.MakeTransition(graph.VertexID(100+i), 1, 7, Null)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("list churn allocates %v per cycle, want 0", avg)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}
