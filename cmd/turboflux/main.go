// Command turboflux runs continuous subgraph matching over stream files.
//
// It loads an initial graph and a query from text files, then replays an
// update stream, printing each positive (+) and negative (-) match as it
// is reported.
//
// Usage:
//
//	turboflux -graph g0.txt -query q.txt -stream updates.txt [-iso] [-quiet]
//	turboflux -data-dir state/ -query q.txt -stream updates.txt [-fsync always|interval|none]
//
// The query is the one registration of a MultiEngine, the engine the
// network server evaluates with. With -data-dir the engine is opened with
// OpenDurableMulti: every update is journaled to a checksummed write-ahead
// log before evaluation, and on restart the directory is recovered (newest
// snapshot + log tail) instead of reloading -graph. The -graph file seeds a
// fresh directory only.
//
// -pattern label names are the data files' numeric labels 0..255, written
// in decimal ("12", not "012"); use -query for labels of 256 and above.
//
// File formats (see internal/stream): the graph and stream files hold one
// record per line — "v <id> [<label>,...]" declares a vertex, "i <from>
// <label> <to>" inserts an edge, "d <from> <label> <to>" deletes one. The
// query file uses the same records, where vertex ids are query vertex ids
// 0..n-1 (deletions are invalid in queries).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"turboflux"
	"turboflux/internal/dcg"
	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

func main() {
	var c config
	flag.StringVar(&c.graph, "graph", "", "initial graph file (required)")
	flag.StringVar(&c.query, "query", "", "query file (this or -pattern required)")
	flag.StringVar(&c.pattern, "pattern", "", "Cypher-like pattern, e.g. '(a:1)-[:0]->(b)' (labels are numeric names 0..255)")
	flag.StringVar(&c.stream, "stream", "", "update stream file (required)")
	flag.BoolVar(&c.iso, "iso", false, "use subgraph isomorphism semantics")
	flag.BoolVar(&c.quiet, "quiet", false, "suppress per-match output, print totals only")
	flag.BoolVar(&c.initial, "initial", false, "also report matches of the initial graph")
	flag.BoolVar(&c.explain, "explain", false, "print the execution plan before streaming")
	flag.StringVar(&c.dataDir, "data-dir", "", "durable mode: journal updates and recover state from this directory")
	flag.StringVar(&c.fsync, "fsync", "interval", "durable-mode fsync policy: always, interval or none")
	flag.Parse()
	if (c.graph == "" && c.dataDir == "") || (c.query == "" && c.pattern == "") || c.stream == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, c); err != nil {
		fmt.Fprintln(os.Stderr, "turboflux:", err)
		os.Exit(1)
	}
}

// config is the command line: file paths, the durable store, and the
// output switches.
type config struct {
	graph, query, pattern, stream, dataDir, fsync string
	iso, quiet, initial, explain                  bool
}

// queryName is the name the one query is registered under.
const queryName = "q"

// run replays c.stream against the query and writes the transcript —
// the plan, the matches and the totals, as c asks — to w.
func run(w io.Writer, c config) error {
	// Catch SIGINT/SIGTERM for the whole run, so a durable store opened
	// later is always closed through the deferred Compact+Close and the
	// WAL ends at a record boundary.
	var interrupted atomic.Bool
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	// Stop then close so the watcher goroutine exits with the run instead
	// of leaking: after Stop the runtime no longer sends on sigCh, so
	// closing it is safe and unblocks the receive.
	defer func() {
		signal.Stop(sigCh)
		close(sigCh)
	}()
	//tf:goroutine signal-watcher
	go func() {
		if sig, ok := <-sigCh; ok {
			interrupted.Store(true)
			fmt.Fprintf(os.Stderr, "turboflux: %v: finishing current chunk, closing store\n", sig)
		}
	}()

	var q *turboflux.Query
	var err error
	if c.pattern != "" {
		q, err = parsePattern(c.pattern)
		if err != nil {
			return fmt.Errorf("parsing pattern: %w", err)
		}
	} else {
		q, err = loadQuery(c.query)
		if err != nil {
			return fmt.Errorf("loading query: %w", err)
		}
	}
	ups, err := loadUpdates(c.stream)
	if err != nil {
		return fmt.Errorf("loading stream: %w", err)
	}

	opt := turboflux.Options{}
	if c.iso {
		opt.Semantics = turboflux.Isomorphism
	}
	if !c.quiet {
		opt.OnMatch = matchPrinter(w)
	}
	if interrupted.Load() {
		return fmt.Errorf("interrupted before the engine was opened")
	}

	var eng *turboflux.MultiEngine
	if c.dataDir != "" {
		if eng, err = openDurable(w, c); err != nil {
			return err
		}
		defer func() {
			if err := eng.Compact(); err != nil {
				fmt.Fprintln(os.Stderr, "turboflux: compacting:", err)
			}
			if err := eng.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "turboflux: closing store:", err)
			}
		}()
	} else {
		g0, err := loadGraph(c.graph)
		if err != nil {
			return fmt.Errorf("loading graph: %w", err)
		}
		eng = turboflux.NewMultiEngine(g0)
		defer eng.Close() //tf:unchecked-ok pool release never fails
	}
	if err := eng.Register(queryName, q, opt); err != nil {
		return err
	}

	if c.explain {
		fmt.Fprintln(w, eng.Explain(queryName))
	}
	if c.initial {
		n := eng.InitialMatches()[queryName]
		fmt.Fprintf(w, "# initial matches: %d\n", n)
	}
	applied, err := applyInterruptible(eng, ups, &interrupted)
	if err != nil {
		return err
	}
	st := eng.Stats()[queryName]
	fmt.Fprintf(w, "# stream: %d updates, %d positive, %d negative, DCG %d edges\n",
		applied, st.PositiveMatches, st.NegativeMatches, st.DCGEdges)
	return nil
}

// applyInterruptible replays ups in batched chunks (each journaled as one
// log write and evaluated through the batch pipeline), stopping cleanly
// at a chunk boundary once interrupted is set so the deferred
// Compact+Close still runs and a durable store's write-ahead log is
// closed without a torn tail.
func applyInterruptible(eng *turboflux.MultiEngine, ups []turboflux.Update, interrupted *atomic.Bool) (int, error) {
	applied := 0
	for _, chunk := range stream.Batches(ups, 1024) {
		if interrupted.Load() {
			fmt.Fprintf(os.Stderr, "turboflux: interrupted after %d/%d updates\n", applied, len(ups))
			break
		}
		if _, err := eng.ApplyBatch(chunk); err != nil {
			return applied, err
		}
		applied += len(chunk)
	}
	return applied, nil
}

// openDurable opens the durable store in c.dataDir, seeding a fresh
// directory from the -graph file (when given) and reporting what recovery
// found.
func openDurable(w io.Writer, c config) (*turboflux.MultiEngine, error) {
	dopt := turboflux.DurableMultiOptions{Fsync: c.fsync}
	if c.graph != "" {
		f, err := os.Open(c.graph)
		if err != nil {
			return nil, fmt.Errorf("loading graph: %w", err)
		}
		defer f.Close() //tf:unchecked-ok read-only file
		// The text is decoded as it is journaled.
		dopt.BootstrapFrom = bufio.NewReader(f)
	}
	d, err := turboflux.OpenDurableMulti(c.dataDir, dopt)
	if err != nil {
		return nil, err
	}
	rec := d.Recovery()
	switch {
	case rec.Fresh:
		fmt.Fprintf(w, "# durable: fresh store in %s (fsync=%s)\n", c.dataDir, c.fsync)
	default:
		fmt.Fprintf(w, "# durable: recovered snapshot@%d + %d replayed updates (%d torn bytes dropped)\n",
			rec.SnapshotLSN, rec.Replayed, rec.TruncatedBytes)
	}
	return d, nil
}

// matchPrinter writes each match to w as "+ u0=<v> u1=<v> ..." ("-" for a
// negative match).
func matchPrinter(w io.Writer) func(bool, []turboflux.VertexID) {
	return func(positive bool, m []turboflux.VertexID) {
		sign := byte('+')
		if !positive {
			sign = '-'
		}
		fmt.Fprintf(w, "%c ", sign)
		for u, v := range m {
			if u > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprintf(w, "u%d=%d", u, v)
		}
		fmt.Fprintln(w)
	}
}

// loadGraph reads a graph file, applying it a window at a time.
func loadGraph(path string) (*turboflux.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //tf:unchecked-ok read-only file
	g := turboflux.NewGraph()
	if err := stream.ApplyText(g, bufio.NewReader(f)); err != nil {
		return nil, err
	}
	return g, nil
}

func loadQuery(path string) (*turboflux.Query, error) {
	ups, err := loadUpdates(path)
	if err != nil {
		return nil, err
	}
	// The largest id sizes the query, so it is bounded before it is used.
	maxV := turboflux.VertexID(0)
	see := func(v turboflux.VertexID) error {
		if v >= dcg.MaxQueryVertices {
			return fmt.Errorf("query vertex id %d: a query has at most %d vertices, ids 0..%d", v, dcg.MaxQueryVertices, dcg.MaxQueryVertices-1)
		}
		maxV = max(maxV, v)
		return nil
	}
	for _, u := range ups {
		var err error
		switch u.Op {
		case stream.OpVertex:
			err = see(u.Vertex)
		case stream.OpInsert:
			if err = see(u.Edge.From); err == nil {
				err = see(u.Edge.To)
			}
		case stream.OpDelete:
			err = fmt.Errorf("query file must not contain deletions")
		}
		if err != nil {
			return nil, err
		}
	}
	q := turboflux.NewQuery(int(maxV) + 1)
	for _, u := range ups {
		switch u.Op {
		case stream.OpVertex:
			q.SetLabels(u.Vertex, u.Labels...)
		case stream.OpInsert:
			if err := q.AddEdge(u.Edge.From, u.Edge.Label, u.Edge.To); err != nil {
				return nil, err
			}
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// parsePattern compiles a -pattern whose label names are the data files'
// numeric labels: "12" resolves to Label(12). A name outside the
// pre-interned 0..255 — "300", or "007", which is not how 7 is written —
// would be interned as a new label and match nothing it names, so it is
// refused.
func parsePattern(pattern string) (*turboflux.Query, error) {
	vd, ed := graph.NumericDict(), graph.NumericDict()
	q, _, err := turboflux.ParseQuery(pattern, vd, ed)
	if err != nil {
		return nil, err
	}
	for _, d := range []*turboflux.Dict{vd, ed} {
		if d.Len() > graph.NumericLabels {
			return nil, fmt.Errorf("label %q is not one of the numeric labels 0..%d (use -query for labels >= %d)",
				d.Name(graph.NumericLabels), graph.NumericLabels-1, graph.NumericLabels)
		}
	}
	return q, nil
}

func loadUpdates(path string) ([]turboflux.Update, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //tf:unchecked-ok read-only file
	return turboflux.DecodeStream(f)
}
