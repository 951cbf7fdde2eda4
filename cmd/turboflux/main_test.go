package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"turboflux"
	"turboflux/internal/core"
	"turboflux/internal/graph"
	"turboflux/internal/query"
	"turboflux/internal/stream"
	"turboflux/internal/workload"
)

// inputs is a small generated workload on disk: g0, the stream whole and
// in two halves, and one tree query.
type inputs struct {
	dir, g0, query, stream, first, second string
	ups                                   []turboflux.Update
}

// writeUpdates writes ups to path in the text stream format.
func writeUpdates(t *testing.T, path string, ups []turboflux.Update) string {
	t.Helper()
	var b strings.Builder
	if err := stream.Encode(&b, ups); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeInputs writes ds's g0 and stream, and q, to a fresh directory.
func writeInputs(t *testing.T, q *query.Graph, ds *workload.Dataset) inputs {
	t.Helper()
	dir := t.TempDir()
	var g0 []turboflux.Update
	ds.Graph.ForEachVertex(func(v graph.VertexID) { g0 = append(g0, stream.DeclareVertex(v, ds.Graph.Labels(v)...)) })
	ds.Graph.ForEachEdge(func(e graph.Edge) { g0 = append(g0, stream.Insert(e.From, e.Label, e.To)) })
	var qu []turboflux.Update
	for u := 0; u < q.NumVertices(); u++ {
		qu = append(qu, stream.DeclareVertex(graph.VertexID(u), q.Labels(graph.VertexID(u))...))
	}
	for _, e := range q.Edges() {
		qu = append(qu, stream.Insert(e.From, e.Label, e.To))
	}
	half := len(ds.Stream) / 2
	return inputs{
		dir:    dir,
		g0:     writeUpdates(t, filepath.Join(dir, "g0.txt"), g0),
		query:  writeUpdates(t, filepath.Join(dir, "query.txt"), qu),
		stream: writeUpdates(t, filepath.Join(dir, "stream.txt"), ds.Stream),
		first:  writeUpdates(t, filepath.Join(dir, "first.txt"), ds.Stream[:half]),
		second: writeUpdates(t, filepath.Join(dir, "second.txt"), ds.Stream[half:]),
		ups:    ds.Stream,
	}
}

// runOut runs the command on c and returns its stdout.
func runOut(t *testing.T, c config) string {
	t.Helper()
	var b strings.Builder
	if err := run(&b, c); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// loadG0 reads the g0 file and applies ups to it.
func loadG0(t *testing.T, in inputs, ups []turboflux.Update) *turboflux.Graph {
	t.Helper()
	g, err := loadGraph(in.g0)
	if err != nil {
		t.Fatal(err)
	}
	stream.ApplyAll(g, ups)
	return g
}

// engineTranscript is the reference: what the command prints for ups over
// g, built directly on one core.Engine, with none of the command's engine
// plumbing.
func engineTranscript(t *testing.T, in inputs, g *turboflux.Graph, ups []turboflux.Update, explain, initial bool) string {
	t.Helper()
	q, err := loadQuery(in.query)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	opt := core.DefaultOptions()
	opt.OnMatch = matchPrinter(&b)
	eng, err := core.New(g, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if explain {
		fmt.Fprintln(&b, eng.Plan().String())
	}
	if initial {
		fmt.Fprintf(&b, "# initial matches: %d\n", eng.InitialMatches())
	}
	for _, u := range ups {
		if _, err := eng.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(&b, "# stream: %d updates, %d positive, %d negative, DCG %d edges\n",
		len(ups), eng.PositiveCount(), eng.NegativeCount(), eng.DCG().NumEdges())
	return b.String()
}

// matchLines drops the "# ..." lines of a transcript.
func matchLines(out string) []string {
	var ms []string
	for _, l := range strings.SplitAfter(out, "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			ms = append(ms, l)
		}
	}
	return ms
}

// dropDurableLine removes the "# durable: ..." line durable mode prints
// first.
func dropDurableLine(t *testing.T, out string) string {
	t.Helper()
	first, rest, _ := strings.Cut(out, "\n")
	if !strings.HasPrefix(first, "# durable: ") {
		t.Fatalf("durable run began %q", first)
	}
	return rest
}

// TestRunDurableRecoverMatchesMemory: the command prints the transcript
// one core.Engine prints, and the same one in memory mode, in durable mode
// on a fresh directory, and — up to the order of one update's matches, which
// snapshot recovery normalises — in durable mode stopped halfway and
// reopened with the second half of the stream.
func TestRunDurableRecoverMatchesMemory(t *testing.T) {
	ds := workload.LSBench(workload.LSBenchConfig{Users: 120, StreamFraction: 0.2, DeletionRate: 0.3, Seed: 1})
	// The query with the longest transcript.
	var in inputs
	var memory string
	for _, q := range ds.TreeQueries(4, 4, 5) {
		qin := writeInputs(t, q, ds)
		if out := runOut(t, config{graph: qin.g0, query: qin.query, stream: qin.stream}); len(out) > len(memory) {
			in, memory = qin, out
		}
	}
	if !strings.Contains(memory, "+ ") || !strings.Contains(memory, "- ") || len(matchLines(memory)) < 100 {
		t.Fatalf("no query of the workload reports enough of both kinds of match:\n%.400s", memory)
	}
	if want := engineTranscript(t, in, loadG0(t, in, nil), in.ups, false, false); memory != want {
		t.Fatalf("memory mode differs from the reference:\n%.400s\nvs\n%.400s", memory, want)
	}

	fresh := runOut(t, config{graph: in.g0, query: in.query, stream: in.stream, dataDir: filepath.Join(in.dir, "fresh"), fsync: "none"})
	if got := dropDurableLine(t, fresh); got != memory {
		t.Fatalf("durable mode differs from memory mode:\n%.400s\nvs\n%.400s", got, memory)
	}

	dir := filepath.Join(in.dir, "halves")
	half := len(in.ups) / 2
	first := runOut(t, config{graph: in.g0, query: in.query, stream: in.first, dataDir: dir, fsync: "none"})
	if got, want := dropDurableLine(t, first), engineTranscript(t, in, loadG0(t, in, nil), in.ups[:half], false, false); got != want {
		t.Fatalf("first half differs from the reference:\n%.400s\nvs\n%.400s", got, want)
	}
	// The reopened store recovers from the snapshot the first run's close
	// wrote, which holds the graph in its canonical binary order: the
	// reference engine starts from that order too.
	second := runOut(t, config{graph: in.g0, query: in.query, stream: in.second, dataDir: dir, fsync: "none"})
	var snap bytes.Buffer
	if err := loadG0(t, in, in.ups[:half]).WriteBinary(&snap); err != nil {
		t.Fatal(err)
	}
	recovered, err := graph.ReadBinary(bufio.NewReader(&snap))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(second, "# durable: recovered ") {
		t.Fatalf("the reopened run began %q", strings.SplitN(second, "\n", 2)[0])
	}
	if got, want := dropDurableLine(t, second), engineTranscript(t, in, recovered, in.ups[half:], false, false); got != want {
		t.Fatalf("reopened second half differs from the reference:\n%.400s\nvs\n%.400s", got, want)
	}
	got := append(matchLines(first), matchLines(second)...)
	want := matchLines(memory)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("the two halves report %d matches, the whole stream %d, or other ones", len(got), len(want))
	}

	explained := runOut(t, config{graph: in.g0, query: in.query, stream: in.stream, explain: true, initial: true})
	if want := engineTranscript(t, in, loadG0(t, in, nil), in.ups, true, true); explained != want {
		t.Fatalf("-explain -initial differs from the reference:\n%.600s\nvs\n%.600s", explained, want)
	}
}

// TestLoadQueryRefusesVertexIDPastLimit: a query file's largest vertex id
// sizes the query, so an id past the 64-vertex limit is refused while the
// file is scanned, before anything is allocated for it.
func TestLoadQueryRefusesVertexIDPastLimit(t *testing.T) {
	for _, u := range []turboflux.Update{turboflux.Insert(0, 0, 64), turboflux.DeclareVertex(1 << 20)} {
		_, err := loadQuery(writeUpdates(t, filepath.Join(t.TempDir(), "q.txt"), []turboflux.Update{u}))
		if err == nil || !strings.Contains(err.Error(), "at most 64 vertices") {
			t.Errorf("%v: error %v, want one naming the 64-vertex limit", u, err)
		}
	}
}

// TestParsePatternNumericLabels: a -pattern label is one of the numeric
// labels 0..255 as written in the data files, or the pattern is refused.
func TestParsePatternNumericLabels(t *testing.T) {
	for _, c := range []struct{ pattern, label string }{
		{"(a:300)-[:0]->(b)", "300"},
		{"(a:007)-[:0]->(b)", "007"},
		{"(a)-[:300]->(b)", "300"},
	} {
		_, err := parsePattern(c.pattern)
		if err == nil || !strings.Contains(err.Error(), `"`+c.label+`"`) || !strings.Contains(err.Error(), "-query") {
			t.Errorf("%s: error %v, want one naming %q and pointing to -query", c.pattern, err, c.label)
		}
	}
	q, err := parsePattern("(a:12)-[:12]->(b)")
	if err != nil {
		t.Fatal(err)
	}
	if l := q.Labels(0); len(l) != 1 || l[0] != 12 {
		t.Errorf("vertex label 12 resolved to %v", l)
	}
	if e := q.Edges(); len(e) != 1 || e[0].Label != 12 {
		t.Errorf("edge label 12 resolved to %v", e)
	}
}
