package turboflux

import (
	"fmt"
	"math/rand"
	"testing"
)

// mqoOverlapSpecs builds a query mix with deliberate overlap: a few base
// shapes, each registered two or three times with differing per-query
// semantics (and, for the triangle, an extra member whose closing
// non-tree edge label differs), so the spanning trees collapse into
// shared sub-patterns while the completion joins stay distinct.
func mqoOverlapSpecs(rng *rand.Rand) []parallelQuerySpec {
	var specs []parallelQuerySpec
	nBase := 2 + rng.Intn(2)
	for b := 0; b < nBase; b++ {
		base := parallelQuerySpec{
			shape:   rng.Intn(4),
			elabels: [3]Label{Label(rng.Intn(3)), Label(rng.Intn(3)), Label(rng.Intn(3))},
			vlabel:  Label(rng.Intn(2)),
		}
		copies := 2 + rng.Intn(2)
		for c := 0; c < copies; c++ {
			s := base
			if rng.Intn(2) == 1 {
				s.semantics = Isomorphism
			}
			specs = append(specs, s)
		}
		if base.shape == 2 {
			// A member that shares the spanning tree but not the closing
			// non-tree edge: the completion join, not the DCG, must tell
			// them apart.
			s := base
			s.elabels[2] = Label(rng.Intn(3))
			specs = append(specs, s)
		}
	}
	return specs
}

// TestMQOEquivalence is the acceptance property of the shared-evaluation
// layer (DESIGN.md §17): for overlapping query mixes and random streams
// (including mid-stream vertex creation and no-op updates), shared
// sub-pattern evaluation emits byte-identical transcripts and counts to
// the independent per-query reference — every query its own engine and
// its own DCG — for every worker count and batch size.
func TestMQOEquivalence(t *testing.T) {
	nUpdates := 300
	if testing.Short() {
		nUpdates = 120
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			specs := mqoOverlapSpecs(rng)
			ups := randomBatchStream(rng, nUpdates)
			checkEquivalence(t, specs, ups, nil, []int{1, 4, 8}, []int{1, 256}, func(cfg string, got runResult) {
				if st := got.mqo; st.SharedSubPatterns == 0 || st.MaintainRuns == 0 || st.SavedEvals == 0 {
					t.Fatalf("%s: sharing never engaged: %+v", cfg, st)
				}
			})
		})
	}
}

// TestMQOChurnEquivalence layers unregister/re-register churn over the
// delete-heavy churn stream and over the vertex-creating batch stream
// (mid-stream declarations and auto-created endpoints): owners leave their
// followers mid-stream and ownership of the DCG is handed over,
// re-registered members adopt the maintained shared DCG in place of a fresh
// build, and released slots recycle — all without the transcript drifting a
// byte from the reference, whose re-registered engines are rebuilt from the
// then-current graph. The second churn set walks ownership down one shape:
// its owner leaves while two members survive, then the new owner, then both
// come back as followers of the third.
func TestMQOChurnEquivalence(t *testing.T) {
	waves, nUpdates := 4, 300
	if testing.Short() {
		waves, nUpdates = 2, 120
	}
	ownersChurn := []churnStep{{unregister: []int{0}}, {unregister: []int{1}}, {register: []int{0, 1}}}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			specs := mqoOverlapSpecs(rng)
			// The first and last query leave and come back one step later.
			ends := []int{0, len(specs) - 1}
			endsChurn := []churnStep{{unregister: ends}, {register: ends}}
			// A third copy of the first shape, so that two members outlive q0.
			three := append([]parallelQuerySpec{specs[0]}, specs...)
			for _, st := range []struct {
				name string
				ups  []Update
			}{
				{"churn", churnStream(rng, waves)},
				{"vertices", randomBatchStream(rng, nUpdates)},
			} {
				for _, c := range []struct {
					name  string
					specs []parallelQuerySpec
					churn []churnStep
				}{
					{"ends", specs, endsChurn},
					{"owners", three, ownersChurn},
				} {
					t.Run(st.name+"/"+c.name, func(t *testing.T) {
						checkEquivalence(t, c.specs, st.ups, c.churn, []int{1, 4, 8}, []int{1, 7, 256}, func(cfg string, got runResult) {
							if got.mqo.MaintainRuns == 0 {
								t.Fatalf("%s: sharing never engaged: %+v", cfg, got.mqo)
							}
						})
					})
				}
			}
		})
	}
}

// TestMQORefcountLifecycle pins the sub-pattern bookkeeping end to end:
// create, share at the second member, survive member loss, unshare at one,
// share again on a fresh join, drop at zero, and hand the DCG over when the
// owner leaves first — with every registered query still matching at each
// stage.
func TestMQORefcountLifecycle(t *testing.T) {
	m := NewMultiEngine(NewGraph())
	defer m.Close() //tf:unchecked-ok test teardown
	m.SetFanOutWorkers(1)
	spec := parallelQuerySpec{shape: 0} // 2-path, edge label 0, vertex label 0
	reg := func(name string) {
		q, opt := spec.build()
		if err := m.Register(name, q, opt); err != nil {
			t.Fatal(err)
		}
	}
	for v := VertexID(1); v <= 10; v++ {
		if _, err := m.Apply(DeclareVertex(v, 0)); err != nil {
			t.Fatal(err)
		}
	}

	check := func(stage string, subs, shared, refs int) {
		t.Helper()
		st := m.MQOStats()
		if st.SubPatterns != subs || st.SharedSubPatterns != shared || st.Refs != refs {
			t.Fatalf("%s: stats %+v, want subs=%d shared=%d refs=%d", stage, st, subs, shared, refs)
		}
	}

	reg("a")
	check("one member", 1, 0, 1)
	reg("b")
	check("shared at two", 1, 1, 2)
	reg("c")
	check("third joins", 1, 1, 3)
	// Unshareable options stay fully private: no sub-pattern participation.
	q, opt := spec.build()
	opt.WorkBudget = 1 << 20
	if err := m.Register("d", q, opt); err != nil {
		t.Fatal(err)
	}
	check("private member", 1, 1, 3)

	counts, err := m.Insert(1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		if counts[name] != 1 {
			t.Fatalf("counts after shared insert = %v", counts)
		}
	}
	if st := m.MQOStats(); st.MaintainRuns == 0 || st.SavedEvals == 0 {
		t.Fatalf("maintenance never ran: %+v", st)
	}

	if !m.Unregister("b") {
		t.Fatal("b not registered")
	}
	check("member released", 1, 1, 2)
	if !m.Unregister("c") {
		t.Fatal("c not registered")
	}
	check("unshared at one", 1, 0, 1)
	counts, err = m.Insert(3, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if counts["a"] != 1 || counts["d"] != 1 || len(counts) != 2 {
		t.Fatalf("counts after unsharing = %v", counts)
	}

	reg("c2")
	check("shared again", 1, 1, 2)
	counts, err = m.Insert(5, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if counts["a"] != 1 || counts["c2"] != 1 || counts["d"] != 1 {
		t.Fatalf("counts after re-sharing = %v", counts)
	}

	if !m.Unregister("a") || !m.Unregister("c2") {
		t.Fatal("unregister failed")
	}
	check("entry dropped at zero", 0, 0, 0)
	counts, err = m.Insert(7, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if counts["d"] != 1 || len(counts) != 1 {
		t.Fatalf("counts after full release = %v", counts)
	}

	// Owner-first order: a leaves while b and c stay, and b takes over the
	// DCG it was following, as it stands.
	reg("a")
	reg("b")
	reg("c")
	check("three again", 1, 1, 3)
	before := m.Stats()
	if !m.Unregister("a") {
		t.Fatal("a not registered")
	}
	check("owner released", 1, 1, 2)
	after := m.Stats()
	if after["b"].DCGEdges != after["c"].DCGEdges || after["b"].DCGEdges != before["a"].DCGEdges {
		t.Fatalf("hand-over changed the DCG: b=%d c=%d edges, a had %d",
			after["b"].DCGEdges, after["c"].DCGEdges, before["a"].DCGEdges)
	}
	counts, err = m.Insert(9, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if counts["b"] != 1 || counts["c"] != 1 || counts["d"] != 1 || len(counts) != 3 {
		t.Fatalf("counts after hand-over = %v", counts)
	}
	if st := m.Stats(); st["b"].DCGEdges != st["c"].DCGEdges || st["b"].DCGEdges <= after["b"].DCGEdges {
		t.Fatalf("new owner does not maintain the shared DCG: b=%d c=%d edges, %d before the insert",
			st["b"].DCGEdges, st["c"].DCGEdges, after["b"].DCGEdges)
	}
}

// TestMQORegisterChurnAllocs guards the incremental label index:
// registering and unregistering one query must cost the same number of
// allocations whether 4 or 64 other queries are registered. The old
// full-index rebuild allocated per registered query and would trip this.
func TestMQORegisterChurnAllocs(t *testing.T) {
	measure := func(n int) float64 {
		m := NewMultiEngine(NewGraph())
		defer m.Close() //tf:unchecked-ok test teardown
		m.SetFanOutWorkers(1)
		for i := 0; i < n; i++ {
			q := NewQuery(2)
			_ = q.AddEdge(0, Label(i%3), 1)
			if err := m.Register(fmt.Sprintf("q%d", i), q, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		churn := func() {
			// A shape no resident query has, so each round walks the full
			// private register/unregister path.
			q := NewQuery(3)
			_ = q.AddEdge(0, 1, 1)
			_ = q.AddEdge(1, 2, 2)
			if err := m.Register("churn", q, Options{}); err != nil {
				t.Fatal(err)
			}
			if !m.Unregister("churn") {
				t.Fatal("churn not registered")
			}
		}
		churn() // prime index and map capacity
		return testing.AllocsPerRun(100, churn)
	}
	small, large := measure(4), measure(64)
	if large > small+8 {
		t.Fatalf("Register/Unregister churn scales with the number of registered queries: %.1f allocs at 4 queries, %.1f at 64", small, large)
	}
}

// TestMQOSecondMemberAllocs pins that a shape has no engine beyond its
// members': joining a one-member shape costs what joining a two-member
// shape does — one follower engine over the owner's DCG, nothing set up on
// the side for the shape having become shared.
func TestMQOSecondMemberAllocs(t *testing.T) {
	m := NewMultiEngine(NewGraph())
	defer m.Close() //tf:unchecked-ok test teardown
	m.SetFanOutWorkers(1)
	q := NewQuery(3)
	_ = q.AddEdge(0, 1, 1)
	_ = q.AddEdge(1, 2, 2)
	for v := VertexID(1); v <= 64; v++ { // an owner with root edges to have settled
		if _, err := m.Apply(DeclareVertex(v)); err != nil {
			t.Fatal(err)
		}
	}
	join := func(name string) func() {
		return func() {
			if err := m.Register(name, q, Options{}); err != nil {
				t.Fatal(err)
			}
			if !m.Unregister(name) {
				t.Fatalf("%s not registered", name)
			}
		}
	}
	if err := m.Register("first", q, Options{}); err != nil {
		t.Fatal(err)
	}
	join("second")() // prime index and map capacity
	second := testing.AllocsPerRun(100, join("second"))
	if err := m.Register("second", q, Options{}); err != nil {
		t.Fatal(err)
	}
	third := testing.AllocsPerRun(100, join("third"))
	if second > third {
		t.Fatalf("registering a shape's 2nd member costs %.1f allocs, its 3rd %.1f: something besides a follower is built", second, third)
	}
}
