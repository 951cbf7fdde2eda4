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
// With -data-dir the engine runs in durable mode: every update is
// journaled to a checksummed write-ahead log before evaluation, and on
// restart the directory is recovered (newest snapshot + log tail) instead
// of reloading -graph. The -graph file seeds a fresh directory only.
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
	"os"
	"os/signal"
	"sort"
	"sync/atomic"
	"syscall"

	"turboflux"
	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

func main() {
	graphPath := flag.String("graph", "", "initial graph file (required)")
	queryPath := flag.String("query", "", "query file (this or -pattern required)")
	pattern := flag.String("pattern", "", "Cypher-like pattern, e.g. '(a:1)-[:0]->(b)' (labels are numeric names)")
	streamPath := flag.String("stream", "", "update stream file (required)")
	iso := flag.Bool("iso", false, "use subgraph isomorphism semantics")
	quiet := flag.Bool("quiet", false, "suppress per-match output, print totals only")
	initial := flag.Bool("initial", false, "also report matches of the initial graph")
	explain := flag.Bool("explain", false, "print the execution plan before streaming")
	dataDir := flag.String("data-dir", "", "durable mode: journal updates and recover state from this directory")
	fsync := flag.String("fsync", "interval", "durable-mode fsync policy: always, interval or none")
	flag.Parse()
	if (*graphPath == "" && *dataDir == "") || (*queryPath == "" && *pattern == "") || *streamPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*graphPath, *queryPath, *pattern, *streamPath, *dataDir, *fsync, *iso, *quiet, *initial, *explain); err != nil {
		fmt.Fprintln(os.Stderr, "turboflux:", err)
		os.Exit(1)
	}
}

// streamEngine is the part of the engine surface the streaming loop needs;
// *turboflux.Engine and *turboflux.DurableEngine both provide it.
type streamEngine interface {
	InitialMatches() int64
	ApplyBatch([]turboflux.Update) (int64, error)
	Explain() string
	Stats() turboflux.Stats
}

func run(graphPath, queryPath, pattern, streamPath, dataDir, fsync string, iso, quiet, initial, explain bool) error {
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
	if pattern != "" {
		// Pattern label names must be the numeric labels used in the data
		// files; numericDict interns "12" as Label(12).
		q, _, err = turboflux.ParseQuery(pattern, numericDict(), numericDict())
		if err != nil {
			return fmt.Errorf("parsing pattern: %w", err)
		}
	} else {
		q, err = loadQuery(queryPath)
		if err != nil {
			return fmt.Errorf("loading query: %w", err)
		}
	}
	ups, err := loadUpdates(streamPath)
	if err != nil {
		return fmt.Errorf("loading stream: %w", err)
	}

	opt := turboflux.Options{}
	if iso {
		opt.Semantics = turboflux.Isomorphism
	}
	if !quiet {
		opt.OnMatch = printMatch
	}
	if interrupted.Load() {
		return fmt.Errorf("interrupted before the engine was opened")
	}

	var eng streamEngine
	if dataDir != "" {
		deng, err := openDurable(dataDir, graphPath, q, fsync, opt)
		if err != nil {
			return err
		}
		defer func() {
			if err := deng.Compact(); err != nil {
				fmt.Fprintln(os.Stderr, "turboflux: compacting:", err)
			}
			if err := deng.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "turboflux: closing store:", err)
			}
		}()
		eng = deng
	} else {
		g0, err := loadGraph(graphPath)
		if err != nil {
			return fmt.Errorf("loading graph: %w", err)
		}
		meng, err := turboflux.NewEngine(g0, q, opt)
		if err != nil {
			return err
		}
		eng = meng
	}

	if explain {
		fmt.Println(eng.Explain())
	}
	if initial {
		n := eng.InitialMatches()
		fmt.Printf("# initial matches: %d\n", n)
	}
	applied, err := applyInterruptible(eng, ups, &interrupted)
	if err != nil {
		return err
	}
	st := eng.Stats()
	fmt.Printf("# stream: %d updates, %d positive, %d negative, DCG %d edges\n",
		applied, st.PositiveMatches, st.NegativeMatches, st.DCGEdges)
	return nil
}

// applyInterruptible replays ups in batched chunks (each journaled as one
// log write and evaluated through the batch pipeline), stopping cleanly
// at a chunk boundary once interrupted is set so the deferred
// Compact+Close still runs and a durable store's write-ahead log is
// closed without a torn tail.
func applyInterruptible(eng streamEngine, ups []turboflux.Update, interrupted *atomic.Bool) (int, error) {
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

// openDurable opens the durable engine, seeding a fresh directory from
// the -graph file (when given) and reporting what recovery found.
func openDurable(dataDir, graphPath string, q *turboflux.Query, fsync string, opt turboflux.Options) (*turboflux.DurableEngine, error) {
	dopt := turboflux.DurableOptions{Options: opt, Fsync: fsync}
	if graphPath != "" {
		f, br, binary, err := openGraph(graphPath)
		if err != nil {
			return nil, fmt.Errorf("loading graph: %w", err)
		}
		defer f.Close() //tf:unchecked-ok read-only file
		if binary {
			// A binary snapshot is expanded into vertex declarations and
			// insertions in deterministic (sorted) order, so the journaled
			// history is reproducible.
			g, err := graph.ReadBinary(br)
			if err != nil {
				return nil, fmt.Errorf("loading graph: %w", err)
			}
			dopt.Bootstrap = graphToUpdates(g)
		} else {
			dopt.BootstrapFrom = br // decoded as it is journaled
		}
	}
	deng, err := turboflux.OpenDurable(dataDir, q, dopt)
	if err != nil {
		return nil, err
	}
	rec := deng.Recovery()
	switch {
	case rec.Fresh:
		fmt.Printf("# durable: fresh store in %s (fsync=%s)\n", dataDir, fsync)
	default:
		fmt.Printf("# durable: recovered snapshot@%d + %d replayed updates (%d torn bytes dropped)\n",
			rec.SnapshotLSN, rec.Replayed, rec.TruncatedBytes)
	}
	return deng, nil
}

func printMatch(positive bool, m []turboflux.VertexID) {
	sign := byte('+')
	if !positive {
		sign = '-'
	}
	fmt.Printf("%c ", sign)
	for u, v := range m {
		if u > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("u%d=%d", u, v)
	}
	fmt.Println()
}

// openGraph opens a graph file, which holds either the text stream format
// or the compact binary format (sniffed by the "TFG1" magic).
func openGraph(path string) (f *os.File, br *bufio.Reader, binary bool, err error) {
	if f, err = os.Open(path); err != nil {
		return nil, nil, false, err
	}
	br = bufio.NewReader(f)
	magic, err := br.Peek(4)
	return f, br, err == nil && string(magic) == "TFG1", nil
}

// loadGraph reads a graph file; a text one is applied a window at a time.
func loadGraph(path string) (*turboflux.Graph, error) {
	f, br, binary, err := openGraph(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //tf:unchecked-ok read-only file
	if binary {
		return graph.ReadBinary(br)
	}
	g := turboflux.NewGraph()
	if err := stream.ApplyText(g, br); err != nil {
		return nil, err
	}
	return g, nil
}

func graphToUpdates(g *turboflux.Graph) []turboflux.Update {
	var verts []turboflux.VertexID
	g.ForEachVertex(func(v turboflux.VertexID) { verts = append(verts, v) })
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	ups := make([]turboflux.Update, 0, len(verts)+g.NumEdges())
	for _, v := range verts {
		ups = append(ups, turboflux.DeclareVertex(v, g.Labels(v)...))
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		if edges[i].Label != edges[j].Label {
			return edges[i].Label < edges[j].Label
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		ups = append(ups, turboflux.Insert(e.From, e.Label, e.To))
	}
	return ups
}

func loadQuery(path string) (*turboflux.Query, error) {
	ups, err := loadUpdates(path)
	if err != nil {
		return nil, err
	}
	maxV := turboflux.VertexID(0)
	for _, u := range ups {
		switch u.Op {
		case stream.OpVertex:
			if u.Vertex > maxV {
				maxV = u.Vertex
			}
		case stream.OpInsert:
			if u.Edge.From > maxV {
				maxV = u.Edge.From
			}
			if u.Edge.To > maxV {
				maxV = u.Edge.To
			}
		case stream.OpDelete:
			return nil, fmt.Errorf("query file must not contain deletions")
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

// numericDict interns decimal strings so that pattern label "12" resolves
// to Label(12), matching the numeric labels of the data files.
func numericDict() *turboflux.Dict {
	d := turboflux.NewDict()
	for i := 0; i < 256; i++ {
		d.Intern(fmt.Sprintf("%d", i))
	}
	return d
}

func loadUpdates(path string) ([]turboflux.Update, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //tf:unchecked-ok read-only file
	return turboflux.DecodeStream(f)
}
