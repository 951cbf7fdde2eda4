package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"turboflux"
	"turboflux/bench/internal/inputs"
	"turboflux/bench/internal/measure"
	"turboflux/internal/core"
	"turboflux/internal/durable"
	"turboflux/internal/graph"
	"turboflux/internal/qlang"
	"turboflux/internal/query"
	"turboflux/internal/stream"
)

// replayN is how many leading stream updates the layer replay pushes
// through each layer. It is a count, not a duration, so the counted
// metrics (bytes, matches, edges) repeat exactly for a seed.
const replayN = 20000

// replayWorkBudget is the per-update work cap the replay's private engines
// run under (the one the frozen query sets were picked under; the servers
// have none), so core.budget_censored counts updates that exploded.
const replayWorkBudget = 2_000_000

// layerReplay calls each layer's public functions in pipeline order on the
// run's own inputs, in this process, with a span around every call. It is
// the per-layer attribution the servers cannot give from outside: the same
// work the end-to-end run pushed through the wire, one layer at a time,
// with nothing else running.
type layerReplay struct {
	in    *inputs.Inputs
	ups   []stream.Update // the replayed prefix
	g0ups []stream.Update
	dir   string
	tr    *measure.Trace
	ms    []metric
}

func (r *layerReplay) add(name, unit string, v float64) {
	r.ms = append(r.ms, metric{Name: name, Unit: unit, Value: v})
}

// perUpdate is a pass's total span time per replayed update, in ns.
func perUpdate(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// batches calls fn for each frameSize-sized batch of the prefix inside a
// span named name under a pass span, and returns the summed batch time.
func (r *layerReplay) batches(name string, fn func(batch []stream.Update) error) (time.Duration, error) {
	pass := r.tr.Begin("pass:"+name, -1, -1)
	defer r.tr.End(pass)
	var total time.Duration
	for off, b := 0, 0; off < len(r.ups); off, b = off+frameSize, b+1 {
		end := min(off+frameSize, len(r.ups))
		id := r.tr.Begin(name, pass, b)
		err := fn(r.ups[off:end])
		total += r.tr.End(id)
		if err != nil {
			return total, fmt.Errorf("%s: %w", name, err)
		}
	}
	return total, nil
}

func runLayerReplay(in *inputs.Inputs, g0ups []stream.Update, dir string) (*layerReplay, error) {
	r := &layerReplay{
		in:    in,
		ups:   in.Dataset.Stream[:min(replayN, len(in.Dataset.Stream))],
		g0ups: g0ups,
		dir:   dir,
		tr:    measure.NewTrace(),
	}
	for _, pass := range []func() error{r.codecs, r.graphApply, r.durableStore, r.core, r.multi, r.durableMulti} {
		if err := pass(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// codecs: internal/stream, the bytes both the wire and the WAL carry.
func (r *layerReplay) codecs() error {
	n := len(r.ups)
	var bin []byte
	d, err := r.batches("stream.encode", func(b []stream.Update) error {
		for _, u := range b {
			var err error
			if bin, err = stream.AppendBinary(bin, u); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.add("stream.encode_ns_per_update", "ns", perUpdate(d, n))
	r.add("stream.bin_bytes_per_update", "B", float64(len(bin))/float64(n))

	rest := bin
	d, err = r.batches("stream.decode_bin", func(b []stream.Update) error {
		for range b {
			_, used, err := stream.DecodeBinary(rest)
			if err != nil {
				return err
			}
			rest = rest[used:]
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.add("stream.decode_bin_ns_per_update", "ns", perUpdate(d, n))

	var text bytes.Buffer
	if err := stream.Encode(&text, r.ups); err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n")
	i := 0
	d, err = r.batches("stream.parse_line", func(b []stream.Update) error {
		for range b {
			if _, err := stream.ParseLine(lines[i]); err != nil {
				return err
			}
			i++
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.add("stream.parse_line_ns_per_update", "ns", perUpdate(d, n))
	return nil
}

// graphApply: internal/graph, the bare adjacency mutation with no query.
func (r *layerReplay) graphApply() error {
	g := r.in.Dataset.Graph.Clone()
	d, err := r.batches("graph.apply", func(b []stream.Update) error {
		for _, u := range b {
			u.Apply(g)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.add("graph.apply_ns_per_update", "ns", perUpdate(d, len(r.ups)))
	r.add("graph.edges_final", "count", float64(g.NumEdges()))
	return nil
}

// durableStore: internal/durable, journaling with the server's fsync
// policy, then checkpoint and recovery.
func (r *layerReplay) durableStore() error {
	dir := filepath.Join(r.dir, "replay-store")
	st, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncInterval})
	if err != nil {
		return err
	}
	defer func() {
		if st != nil {
			st.Close() //tf:unchecked-ok only reached on an error path
		}
	}()
	// The store's graph starts as the initial graph without journaling it,
	// so the snapshot below has the size a server's would.
	stream.ApplyAll(st.Graph(), r.g0ups)
	n := len(r.ups)

	before, err := dirBytes(dir)
	if err != nil {
		return err
	}
	d, err := r.batches("durable.append_batch", func(b []stream.Update) error {
		_, _, err := st.AppendBatch(b)
		return err
	})
	if err != nil {
		return err
	}
	stream.ApplyAll(st.Graph(), r.ups)
	r.add("durable.append_batch_ns_per_update", "ns", perUpdate(d, n))

	id := r.tr.Begin("durable.sync", -1, -1)
	err = st.Sync()
	r.add("durable.sync_ms", "ms", float64(r.tr.End(id))/1e6)
	if err != nil {
		return err
	}
	after, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.add("durable.wal_bytes_per_update", "B", float64(after-before)/float64(n))

	id = r.tr.Begin("durable.compact", -1, -1)
	err = st.Compact()
	r.add("durable.compact_ms", "ms", float64(r.tr.End(id))/1e6)
	if err != nil {
		return err
	}
	snap, err := largestFile(dir, "snap")
	if err != nil {
		return err
	}
	r.add("durable.snapshot_bytes", "B", float64(snap))

	// The single-record path journals the same updates again: the WAL cost
	// does not depend on content, and recovery replays duplicates as no-ops.
	d, err = r.batches("durable.append_single", func(b []stream.Update) error {
		for _, u := range b {
			if _, err := st.Append(u); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.add("durable.append_single_ns_per_update", "ns", perUpdate(d, n))
	err = st.Close()
	st = nil
	if err != nil {
		return err
	}

	id = r.tr.Begin("durable.reopen", -1, -1)
	re, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncInterval})
	r.add("durable.reopen_ms", "ms", float64(r.tr.End(id))/1e6)
	if err != nil {
		return err
	}
	if got := re.Recovery().Replayed; got != n {
		re.Close() //tf:unchecked-ok already failing
		return fmt.Errorf("durable.reopen: replayed %d records after the snapshot, journaled %d", got, n)
	}
	return re.Close()
}

// core: internal/core and internal/dcg — the paper's cost. One private
// engine per query over one shared graph, routed by edge label.
func (r *layerReplay) core() error {
	n := len(r.ups)
	route := newRouter(r.in.Queries)
	build := func(g *graph.Graph, budget int64) ([]*core.Engine, error) {
		engines := make([]*core.Engine, len(r.in.Queries))
		for i, q := range r.in.Queries {
			opt := core.DefaultOptions()
			opt.WorkBudget = budget
			e, err := core.New(g, q, opt)
			if err != nil {
				return nil, fmt.Errorf("core.New(%s): %w", r.in.Names[i], err)
			}
			engines[i] = e
		}
		return engines, nil
	}

	g := r.in.Dataset.Graph.Clone()
	id := r.tr.Begin("core.build_dcg", -1, -1)
	engines, err := build(g, replayWorkBudget)
	r.add("core.build_dcg_ms_total", "ms", float64(r.tr.End(id))/1e6)
	if err != nil {
		return err
	}

	var spent [3]time.Duration // indexed by stream.Op
	var count [3]int
	var censored int
	var matches int64
	d, err := r.batches("core.apply", func(b []stream.Update) error {
		for _, u := range b {
			t0 := time.Now()
			route.apply(g, u, func(i int) {
				m, err := evalEdge(engines[i], u)
				matches += m
				if errors.Is(err, core.ErrWorkBudget) {
					censored++
				}
			})
			spent[u.Op] += time.Since(t0)
			count[u.Op]++
		}
		return nil
	})
	if err != nil {
		return err
	}
	applyNs := perUpdate(d, n)
	r.add("core.apply_ns_per_update", "ns", applyNs)
	r.add("core.insert_ns_per_update", "ns", perUpdate(spent[stream.OpInsert], max(count[stream.OpInsert], 1)))
	r.add("core.delete_ns_per_update", "ns", perUpdate(spent[stream.OpDelete], max(count[stream.OpDelete], 1)))
	r.add("core.matches_per_update", "count", float64(matches)/float64(n))
	r.add("core.budget_censored", "count", float64(censored))

	var dcgEdges, dcgExplicit int
	var dcgBytes int64
	for _, e := range engines {
		dcgEdges += e.DCG().NumEdges()
		dcgExplicit += e.DCG().NumExplicit()
		dcgBytes += e.DCG().SizeBytes()
	}
	r.add("dcg.edges_final", "count", float64(dcgEdges))
	r.add("dcg.bytes_final", "B", float64(dcgBytes))
	r.add("dcg.explicit_share", "ratio", float64(dcgExplicit)/float64(max(dcgEdges, 1)))

	// Maintenance alone: a maintainer per query adopts a fresh donor's DCG
	// and applies every transition without searching or reporting.
	g = r.in.Dataset.Graph.Clone()
	donors, err := build(g, 0)
	if err != nil {
		return err
	}
	maint := make([]*core.Engine, len(donors))
	for i, e := range donors {
		maint[i] = core.NewMaintainer(e)
	}
	d, err = r.batches("core.maintain", func(b []stream.Update) error {
		for _, u := range b {
			route.apply(g, u, func(i int) {
				if u.Op == stream.OpInsert {
					maint[i].MaintainInsertedEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
				} else {
					maint[i].MaintainBeforeDelete(u.Edge.From, u.Edge.Label, u.Edge.To)
				}
			})
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.add("core.maintain_ns_per_update", "ns", perUpdate(d, n))
	r.add("core.search_ns_per_update", "ns", applyNs-perUpdate(d, n))
	return nil
}

// multi: the root package's MultiEngine — routing, sharing, fan-out and
// the batch scheduler on top of the engines core measured.
func (r *layerReplay) multi() error {
	n := len(r.ups)
	newMulti := func() (*turboflux.MultiEngine, error) {
		m := turboflux.NewMultiEngine(r.in.Dataset.Graph.Clone())
		for i, q := range r.in.Queries {
			if err := m.Register(r.in.Names[i], q.Clone(), turboflux.Options{}); err != nil {
				return nil, err
			}
		}
		return m, nil
	}
	m, err := newMulti()
	if err != nil {
		return err
	}
	d, err := r.batches("multi.apply", func(b []stream.Update) error {
		for _, u := range b {
			if _, err := m.Apply(u); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.add("multi.apply_ns_per_update", "ns", perUpdate(d, n))

	if m, err = newMulti(); err != nil {
		return err
	}
	d, err = r.batches("multi.batch256", func(b []stream.Update) error {
		_, err := m.ApplyBatch(b)
		return err
	})
	var bytesTotal int64
	for _, s := range m.Stats() { //tf:unordered-ok summing is order-independent
		bytesTotal += s.IntermediateBytes
	}
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	batchNs := perUpdate(d, n)
	r.add("multi.batch256_ns_per_update", "ns", batchNs)
	r.add("multi.vs_core_ratio", "ratio", batchNs/r.value("core.apply_ns_per_update"))
	r.add("multi.intermediate_bytes", "B", float64(bytesTotal))
	return nil
}

// durableMulti is what the server's actor calls per BATCHB frame, minus
// the server: OpenDurableMulti bootstrapped like -graph, queries parsed by
// qlang like REGISTER, frames through ApplyBatch. Its cost against the
// end-to-end saturate cost is the wire's overhead.
func (r *layerReplay) durableMulti() error {
	vd, ed := inputs.NumericDict(), inputs.NumericDict()
	dm, err := turboflux.OpenDurableMulti(filepath.Join(r.dir, "replay-multi"), turboflux.DurableMultiOptions{
		Fsync:        "interval",
		VertexLabels: vd,
		EdgeLabels:   ed,
		Bootstrap:    r.g0ups,
	})
	if err != nil {
		return err
	}
	var parse time.Duration
	for i, p := range r.in.Patterns {
		id := r.tr.Begin("qlang.parse", -1, i)
		q, _, err := qlang.Parse(p, vd, ed)
		parse += r.tr.End(id)
		if err == nil {
			err = dm.Register(r.in.Names[i], q, turboflux.Options{})
		}
		if err != nil {
			dm.Close() //tf:unchecked-ok already failing
			return err
		}
	}
	r.add("qlang.parse_us_per_query", "us", float64(parse.Microseconds())/float64(len(r.in.Patterns)))
	d, err := r.batches("durable_multi.batch256", func(b []stream.Update) error {
		_, err := dm.ApplyBatch(b)
		return err
	})
	if cerr := dm.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.add("durable_multi.batch256_ns_per_update", "ns", perUpdate(d, len(r.ups)))
	return nil
}

// value returns an already recorded metric.
func (r *layerReplay) value(name string) float64 {
	for _, m := range r.ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// largestFile returns the size of the largest file in dir whose name
// starts with prefix.
func largestFile(dir, prefix string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var best int64
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		best = max(best, info.Size())
	}
	return best, nil
}

// router sends each stream update to the queries it can affect: the ones
// with an edge of the update's label, which is how the multi-query engine
// routes. The layer replay drives private engines over one graph with it.
type router map[graph.Label][]int

// newRouter indexes queries by the edge labels they use.
func newRouter(queries []*query.Graph) router {
	r := router{}
	for i, q := range queries {
		seen := map[graph.Label]bool{}
		for _, qe := range q.Edges() {
			if !seen[qe.Label] {
				seen[qe.Label] = true
				r[qe.Label] = append(r[qe.Label], i)
			}
		}
	}
	return r
}

// apply applies edge update u to g in Algorithm 2's order — insert, then
// evaluate; evaluate, then delete — calling eval with the index of every
// query u's label can affect while the graph is in the state evaluation
// expects. Duplicate inserts and deletes of absent edges evaluate nothing.
func (r router) apply(g *graph.Graph, u stream.Update, eval func(i int)) {
	e := u.Edge
	switch u.Op {
	case stream.OpInsert:
		if g.InsertEdge(e.From, e.Label, e.To) {
			for _, i := range r[e.Label] {
				eval(i)
			}
		}
	case stream.OpDelete:
		if g.HasEdge(e.From, e.Label, e.To) {
			for _, i := range r[e.Label] {
				eval(i)
			}
			g.DeleteEdge(e.From, e.Label, e.To)
		}
	}
}

// evalEdge evaluates an edge update the router has applied (insert) or is about
// to apply (delete) on one private engine.
func evalEdge(e *core.Engine, u stream.Update) (int64, error) {
	if u.Op == stream.OpInsert {
		return e.EvalInsertedEdge(u.Edge.From, u.Edge.Label, u.Edge.To)
	}
	return e.EvalBeforeDelete(u.Edge.From, u.Edge.Label, u.Edge.To)
}
