package turboflux

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"turboflux/internal/core"
	"turboflux/internal/stream"
)

// The equivalence suites compare MultiEngine against a reference that
// shares no window scheduling with it: one core.Engine per spec, built by
// core.New over its own clone of the stream's graph, driven update by update in
// registration order. Both sides write the same interleaved transcript —
// `q<i>±[mapping];` per emission, `|<idx>;` after each update — so
// emission order across queries (registration order within an update) and
// the position of every update boundary are part of the compared bytes.

// streamTarget is what driveStream feeds: the reference or a MultiEngine.
type streamTarget interface {
	register(i int)   // (re-)register spec i against the current graph
	unregister(i int) // drop spec i's query
	apply(seg []Update, off int)
}

// churnStep is one change of the registered set between two stretches of
// the stream: the listed specs are unregistered, then the listed ones
// (re-)registered against the then-current graph.
type churnStep struct{ unregister, register []int }

// driveStream registers every spec and applies ups, cut into len(churn)+1
// equal stretches with one churn step between each two.
func driveStream(tg streamTarget, nSpecs int, ups []Update, churn []churnStep) {
	for i := 0; i < nSpecs; i++ {
		tg.register(i)
	}
	from := 0
	for k, step := range churn {
		to := (k + 1) * len(ups) / (len(churn) + 1)
		tg.apply(ups[from:to], from)
		from = to
		for _, i := range step.unregister {
			tg.unregister(i)
		}
		for _, i := range step.register {
			tg.register(i)
		}
	}
	tg.apply(ups[from:], from)
}

// runResult is what one drive of a stream produced.
type runResult struct {
	transcript string
	totals     map[string]int64 // summed per-query counts, non-zero only
	dcgEdges   map[string]int   // per-query DCG size after the stream
	matched    map[string]Stats // per-query Positive/NegativeMatches after the stream
	censored   map[string]bool  // "q<i>@<update>" for every evaluation ErrWorkBudget censored
	fanout     FanOutStats      // MultiEngine runs only
	mqo        MQOStats         // MultiEngine runs only
	m          *MultiEngine     // MultiEngine runs only, pool closed
}

// censorKey names one censored evaluation in runResult.censored.
func censorKey(name string, idx int) string { return fmt.Sprintf("%s@%d", name, idx) }

// transcriptHook returns the OnMatch hook writing query name's emissions.
func transcriptHook(b *strings.Builder, name string) func(bool, []VertexID) {
	return func(positive bool, mapping []VertexID) {
		sign := byte('+')
		if !positive {
			sign = '-'
		}
		fmt.Fprintf(b, "%s%c%v;", name, sign, mapping)
	}
}

// newReference builds one query's reference engine over g: the core.Engine
// a registration wraps, driven directly, without the window scheduler the
// equivalence suites check.
func newReference(g *Graph, q *Query, opt Options) (*core.Engine, error) {
	copt := core.DefaultOptions()
	copt.Semantics = opt.Semantics
	copt.OnMatch = opt.OnMatch
	copt.WorkBudget = opt.WorkBudget
	return core.New(g, q, copt)
}

// applyReference applies ups to a reference engine one at a time.
func applyReference(t *testing.T, eng *core.Engine, ups []Update) {
	t.Helper()
	for _, u := range ups {
		if _, err := eng.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
}

// refTarget is the reference: independent single-query engines.
type refTarget struct {
	t        *testing.T
	specs    []parallelQuerySpec
	g        *Graph // the stream applied so far; registrations clone it
	names    []string
	engs     []*core.Engine // parallel to names, registration order
	b        strings.Builder
	totals   map[string]int64
	censored map[string]bool
}

func (r *refTarget) register(i int) {
	name := fmt.Sprintf("q%d", i)
	q, opt := r.specs[i].build()
	if !r.specs[i].silent {
		opt.OnMatch = transcriptHook(&r.b, name)
	}
	eng, err := newReference(r.g.Clone(), q, opt)
	if err != nil {
		r.t.Fatal(err)
	}
	r.names = append(r.names, name)
	r.engs = append(r.engs, eng)
}

func (r *refTarget) unregister(i int) {
	name := fmt.Sprintf("q%d", i)
	for k, n := range r.names {
		if n == name {
			r.names = append(r.names[:k], r.names[k+1:]...)
			r.engs = append(r.engs[:k], r.engs[k+1:]...)
			return
		}
	}
	r.t.Fatalf("%s was not registered", name)
}

func (r *refTarget) apply(seg []Update, off int) {
	for i, u := range seg {
		for k, eng := range r.engs {
			n, err := eng.Apply(u)
			if errors.Is(err, ErrWorkBudget) {
				r.censored[censorKey(r.names[k], off+i)] = true
			} else if err != nil {
				r.t.Fatal(err)
			}
			if n != 0 {
				r.totals[r.names[k]] += n
			}
		}
		u.Apply(r.g)
		fmt.Fprintf(&r.b, "|%d;", off+i)
	}
}

// runReference drives the stream through the reference engines.
func runReference(t *testing.T, specs []parallelQuerySpec, ups []Update, churn []churnStep) runResult {
	t.Helper()
	r := &refTarget{t: t, specs: specs, g: NewGraph(), totals: map[string]int64{}, censored: map[string]bool{}}
	driveStream(r, len(specs), ups, churn)
	res := runResult{transcript: r.b.String(), totals: r.totals, dcgEdges: map[string]int{}, matched: map[string]Stats{}, censored: r.censored}
	for k, eng := range r.engs {
		res.dcgEdges[r.names[k]] = eng.DCG().NumEdges()
		res.matched[r.names[k]] = Stats{PositiveMatches: eng.PositiveCount(), NegativeMatches: eng.NegativeCount()}
	}
	return res
}

// multiTarget is the code under test: one MultiEngine. batch == 0 applies
// one update at a time with Apply; otherwise the stream goes through
// ApplyBatchFunc in chunks of batch.
type multiTarget struct {
	t        *testing.T
	specs    []parallelQuerySpec
	m        *MultiEngine
	batch    int
	b        strings.Builder
	totals   map[string]int64
	censored map[string]bool
}

func (mt *multiTarget) register(i int) {
	name := fmt.Sprintf("q%d", i)
	q, opt := mt.specs[i].build()
	if !mt.specs[i].silent {
		opt.OnMatch = transcriptHook(&mt.b, name)
	}
	if err := mt.m.Register(name, q, opt); err != nil {
		mt.t.Fatal(err)
	}
}

func (mt *multiTarget) unregister(i int) {
	if !mt.m.Unregister(fmt.Sprintf("q%d", i)) {
		mt.t.Fatalf("q%d was not registered", i)
	}
}

func (mt *multiTarget) apply(seg []Update, off int) {
	// merge files each ErrWorkBudget of err — MultiEngine's joined
	// `[update i: ]query "name": cause` errors — as a censored evaluation,
	// update indexes counted from base; any other error fails the test.
	merge := func(base int, counts map[string]int64, err error) {
		if err != nil {
			for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
				msg, i, name := e.Error(), 0, ""
				var serr error
				if strings.HasPrefix(msg, "update ") {
					_, serr = fmt.Sscanf(msg, "update %d: query %q:", &i, &name)
				} else {
					_, serr = fmt.Sscanf(msg, "query %q:", &name)
				}
				if serr != nil || !errors.Is(e, ErrWorkBudget) {
					mt.t.Fatal(e)
				}
				mt.censored[censorKey(name, base+i)] = true
			}
		}
		for name, n := range counts {
			mt.totals[name] += n
		}
	}
	if mt.batch == 0 {
		for i, u := range seg {
			counts, err := mt.m.Apply(u)
			merge(off+i, counts, err)
			fmt.Fprintf(&mt.b, "|%d;", off+i)
		}
		return
	}
	for _, chunk := range stream.Batches(seg, mt.batch) {
		base := off
		counts, err := mt.m.ApplyBatchFunc(chunk, func(i int) {
			fmt.Fprintf(&mt.b, "|%d;", base+i)
		})
		merge(base, counts, err)
		off += len(chunk)
	}
}

// runMulti drives the stream through a fresh MultiEngine.
func runMulti(t *testing.T, workers, batch int, specs []parallelQuerySpec, ups []Update, churn []churnStep) runResult {
	t.Helper()
	m := NewMultiEngine(NewGraph())
	defer m.Close() //tf:unchecked-ok test teardown
	m.SetFanOutWorkers(workers)
	if got := m.FanOutStats().Workers; got != workers {
		t.Fatalf("FanOutStats().Workers = %d, want %d", got, workers)
	}
	mt := &multiTarget{t: t, specs: specs, m: m, batch: batch, totals: map[string]int64{}, censored: map[string]bool{}}
	driveStream(mt, len(specs), ups, churn)
	res := runResult{
		transcript: mt.b.String(),
		totals:     mt.totals,
		dcgEdges:   map[string]int{},
		matched:    map[string]Stats{},
		censored:   mt.censored,
		fanout:     m.FanOutStats(),
		mqo:        m.MQOStats(),
		m:          m,
	}
	for name, st := range m.Stats() {
		res.dcgEdges[name] = st.DCGEdges
		res.matched[name] = Stats{PositiveMatches: st.PositiveMatches, NegativeMatches: st.NegativeMatches}
	}
	return res
}

// checkEquivalence is the property every suite asserts: under each
// (workers, batch) configuration MultiEngine's transcript, summed counts,
// censored (query, update) evaluations, final per-query DCG sizes and
// Stats match counters equal the reference's, byte for byte. each, when non-nil, sees every
// MultiEngine result for extra assertions. It returns the reference's
// result.
func checkEquivalence(t *testing.T, specs []parallelQuerySpec, ups []Update, churn []churnStep,
	workers, batches []int, each func(cfg string, got runResult)) runResult {
	t.Helper()
	want := runReference(t, specs, ups, churn)
	for _, w := range workers {
		for _, bs := range batches {
			cfg := fmt.Sprintf("workers=%d batch=%d", w, bs)
			got := runMulti(t, w, bs, specs, ups, churn)
			if got.transcript != want.transcript {
				t.Fatalf("%s: transcript diverged from the per-query reference %s",
					cfg, firstDiff(got.transcript, want.transcript))
			}
			if len(got.totals) != len(want.totals) {
				t.Fatalf("%s: counts %v, reference %v", cfg, got.totals, want.totals)
			}
			for name, n := range want.totals {
				if got.totals[name] != n {
					t.Fatalf("%s query %s: counts %d != reference %d", cfg, name, got.totals[name], n)
				}
			}
			for name, n := range want.dcgEdges {
				if got.dcgEdges[name] != n {
					t.Fatalf("%s query %s: %d DCG edges != reference %d", cfg, name, got.dcgEdges[name], n)
				}
				if got.matched[name] != want.matched[name] {
					t.Fatalf("%s query %s: Stats matches %+v != reference %+v", cfg, name, got.matched[name], want.matched[name])
				}
			}
			if len(got.censored) != len(want.censored) {
				t.Fatalf("%s: %d censored evaluations, reference %d", cfg, len(got.censored), len(want.censored))
			}
			for k := range want.censored {
				if !got.censored[k] {
					t.Fatalf("%s: evaluation %s censored by the reference only", cfg, k)
				}
			}
			if each != nil {
				each(cfg, got)
			}
		}
	}
	return want
}

// firstDiff returns a window around the first byte where got and want
// diverge, for readable failure output.
func firstDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 60
	if lo < 0 {
		lo = 0
	}
	end := func(s string) int {
		if i+60 < len(s) {
			return i + 60
		}
		return len(s)
	}
	return fmt.Sprintf("at byte %d:\n  got:  …%s\n  want: …%s", i, got[lo:end(got)], want[lo:end(want)])
}
