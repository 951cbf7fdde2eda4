package turboflux

import (
	"fmt"
	"math/rand"
	"slices"
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

// twinSpecs builds a mix around one base query (DESIGN.md §17, Twins):
// q0, q1 and q4 are identical and registered together, so q1 and q4 are
// q0's twins; q0 has no OnMatch, so the twins replay emissions their
// source buffers for them alone. q2 and q6 are the base under the other
// semantics (q6 a twin of q2, neither of q0); q3 and q5 share a small work
// budget (q5 a twin of q3) and q7 has another; q8 adds the same edges in
// reverse order, so it joins the base's DCG without being a twin. q9 is an
// unrelated query. The base's edges all carry one label.
func twinSpecs(rng *rand.Rand) []parallelQuerySpec {
	l := Label(rng.Intn(3))
	base := parallelQuerySpec{
		shape:     1 + rng.Intn(3), // two or three edges, so the order can differ
		elabels:   [3]Label{l, l, l},
		anyVertex: true, // with one edge label: matches enough to censor the budgeted copies
	}
	other := base
	other.semantics = 1 - base.semantics
	if rng.Intn(2) == 1 {
		base, other = other, base
	}
	silent, budget1, budget2, rev := base, base, base, base
	silent.silent, budget1.budget, budget2.budget, rev.reversed = true, 1, 2, true
	unrelated := parallelQuerySpec{shape: 0, elabels: [3]Label{Label(rng.Intn(3))}, vlabel: Label(rng.Intn(2))}
	return []parallelQuerySpec{silent, base, other, budget1, base, budget1, other, budget2, rev, unrelated}
}

// driftStream is churnStream with 100 edges of label l inserted after its
// vertex declarations: the explicit path counts of a query over l grow
// past the drift slack, so matching orders are recomputed mid-stream — by
// sources and twins alike.
func driftStream(rng *rand.Rand, waves int, l Label) []Update {
	const nVerts = 24 // churnStream's declarations
	ups := churnStream(rng, waves)
	dense := make([]Update, 100)
	for i := range dense {
		dense[i] = Insert(VertexID(1+rng.Intn(nVerts)), l, VertexID(1+rng.Intn(nVerts)))
	}
	return slices.Concat(ups[:nVerts], dense, ups[nVerts:])
}

// twinsAtStart is the twin relation twinSpecs yields when every spec is
// registered before the stream: query name → its source's name.
var twinsAtStart = map[string]string{"q1": "q0", "q4": "q0", "q5": "q3", "q6": "q2"}

// checkTwins asserts that m's twin relation is want (query → source; every
// other query searches itself, except that the queries named in either may
// also be twins), that MQOStats counts it, and that every twin's engine
// still evaluates as its source's does — the order state included, which
// twin-ness fixes at registration.
func checkTwins(t *testing.T, cfg string, m *MultiEngine, want map[string]string, either ...string) {
	t.Helper()
	twins := 0
	for _, name := range m.Queries() {
		src := m.TwinOf(name)
		if src != want[name] && (want[name] != "" || !slices.Contains(either, name)) {
			t.Fatalf("%s: TwinOf(%s) = %q, want %q", cfg, name, src, want[name])
		}
		if src == "" {
			continue
		}
		twins++
		s, o := m.slots[name].eng, m.slots[src].eng
		if !slices.Equal(s.MatchingOrder(), o.MatchingOrder()) || !o.Twin(s) {
			t.Fatalf("%s: twin %s no longer evaluates as its source %s: order %v, source's %v",
				cfg, name, src, s.MatchingOrder(), o.MatchingOrder())
		}
	}
	if got := m.MQOStats().Twins; got != twins {
		t.Fatalf("%s: MQOStats.Twins = %d, want %d", cfg, got, twins)
	}
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
	censored := 0 // the twin cases' censored evaluations
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
		// Twins: identical registrations copy their source's evaluation,
		// and the copies that differ in semantics, budget or edge order
		// search for themselves — all byte-identical to the reference.
		t.Run(fmt.Sprintf("twins/seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			specs := twinSpecs(rng)
			ups := driftStream(rng, nUpdates/100, specs[0].elabels[0])
			want := checkEquivalence(t, specs, ups, nil, []int{1, 4}, []int{1, 256}, func(cfg string, got runResult) {
				checkTwins(t, cfg, got.m, twinsAtStart)
			})
			censored += len(want.censored)
		})
	}
	if censored == 0 {
		t.Fatal("no evaluation was censored: the budgeted twins are not exercised")
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
	drifted := 0 // twin-case runs where a copy came back with its own order state
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
			twins := twinSpecs(rng)
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
				// Twins under churn: q0, the owner and the source of q1 and
				// q4, leaves mid-stream, and so does q2, a follower and the
				// source of q6. Their first twins search in their place,
				// without a rebuild. Both come back after the DCG has moved
				// on: twins again only if its counts are back where the
				// members' orders were computed, sources of their own when
				// the order state drifted.
				t.Run(st.name+"/twins", func(t *testing.T) {
					churn := []churnStep{{unregister: []int{0, 2}}, {register: []int{0, 2}}}
					checkEquivalence(t, twins, st.ups, churn, []int{1, 4}, []int{1, 256}, func(cfg string, got runResult) {
						checkTwins(t, cfg, got.m, map[string]string{"q4": "q1", "q5": "q3"}, "q0", "q2")
						if got.m.TwinOf("q0") == "" || got.m.TwinOf("q2") == "" {
							drifted++
						}
					})
				})
				// The owner leaves with a follower that is not its twin
				// between it and its twin: members [q0, q1, q2], q2 q0's
				// twin, q1 the base under the other semantics. q1 takes the
				// DCG over and q2, the heir, stays a follower that searches.
				t.Run(st.name+"/twins-owner-gap", func(t *testing.T) {
					gap := []parallelQuerySpec{twins[1], twins[2], twins[1]}
					m := NewMultiEngine(NewGraph())
					defer m.Close() //tf:unchecked-ok test teardown
					for i, spec := range gap {
						q, opt := spec.build()
						if err := m.Register(fmt.Sprintf("q%d", i), q, opt); err != nil {
							t.Fatal(err)
						}
					}
					checkTwins(t, "registered", m, map[string]string{"q2": "q0"})
					churn := []churnStep{{unregister: []int{0}}, {register: []int{0}}}
					checkEquivalence(t, gap, st.ups, churn, []int{1, 4}, []int{1, 256}, func(cfg string, got runResult) {
						checkTwins(t, cfg, got.m, map[string]string{}, "q0")
					})
				})
			}
		})
	}
	if drifted == 0 {
		t.Fatal("every re-registered copy became a twin again: registration after drift is not exercised")
	}
}

// TestMQORefcountLifecycle pins the sub-pattern bookkeeping end to end:
// create, share at the second member, admit a budgeted member like any
// other, survive member loss, unshare at one,
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
	// A work budget caps only the query's own matches: it shares like any
	// other member.
	q, opt := spec.build()
	opt.WorkBudget = 1 << 20
	if err := m.Register("d", q, opt); err != nil {
		t.Fatal(err)
	}
	check("budgeted member joins the shape", 1, 1, 4)

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
	if !m.Unregister("d") {
		t.Fatal("d not registered")
	}
	check("budgeted member released", 1, 1, 3)

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
	if counts["a"] != 1 || len(counts) != 1 {
		t.Fatalf("counts after unsharing = %v", counts)
	}

	reg("c2")
	check("shared again", 1, 1, 2)
	counts, err = m.Insert(5, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if counts["a"] != 1 || counts["c2"] != 1 || len(counts) != 2 {
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
	if len(counts) != 0 {
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
	if counts["b"] != 1 || counts["c"] != 1 || len(counts) != 2 {
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
