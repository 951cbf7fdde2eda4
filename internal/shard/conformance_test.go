package shard

// Front-end conformance: a client cannot tell a coordinator from a single
// server. One request script runs over a raw socket against a plain
// server and against a coordinator over two in-process shards; the
// replies must agree line by line in class (+OK / -ERR / +DATA), +OK
// payloads and pushed lines (*EVENT, *EVICTED) byte for byte.
//
// The documented differences, checked below rather than skipped:
//   - -ERR texts: each backend words its own ("server: ..." / "shard: ...");
//     only the class is compared.
//   - STATS: both answer +DATA, the payloads differ (engine and queue
//     counters vs the cluster, shard and placement lines).
//   - SHARDSTATS: +DATA on a coordinator, -ERR on a plain server.
//   - REPLICATE / PROMOTE: -ERR on both here, for different reasons (a
//     coordinator never replicates; this server is a memory-only leader).

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"turboflux"
	"turboflux/internal/graph"
	"turboflux/internal/server"
	"turboflux/internal/stream"
)

// scriptConn is a raw protocol connection that separates pushes ('*' lines)
// from replies, both in arrival order.
type scriptConn struct {
	t      *testing.T
	nc     net.Conn
	lines  chan string // every line read, closed at EOF
	pushes []string
}

func dialScript(t *testing.T, addr string) *scriptConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &scriptConn{t: t, nc: nc, lines: make(chan string, 64)}
	go func() {
		defer close(c.lines)
		br := bufio.NewReader(nc)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			c.lines <- strings.TrimRight(line, "\r\n")
		}
	}()
	t.Cleanup(func() { nc.Close() })
	return c
}

// line returns the next line of either kind; ok is false at EOF.
func (c *scriptConn) line() (string, bool) {
	select {
	case l, ok := <-c.lines:
		return l, ok
	case <-time.After(10 * time.Second):
		c.t.Fatal("timed out waiting for a line")
		return "", false
	}
}

// reply sends one request (body, when non-empty, follows the request line
// verbatim) and returns its reply: the status line plus, for +DATA, the
// payload lines. Pushes arriving meanwhile are set aside.
func (c *scriptConn) reply(req string, body []byte) []string {
	c.t.Helper()
	if _, err := c.nc.Write(append([]byte(req+"\n"), body...)); err != nil {
		c.t.Fatalf("%s: %v", req, err)
	}
	for {
		l, ok := c.line()
		if !ok {
			c.t.Fatalf("%s: connection closed before the reply", req)
		}
		if strings.HasPrefix(l, "*") {
			c.pushes = append(c.pushes, l)
			continue
		}
		out := []string{l}
		if n, isData := strings.CutPrefix(l, "+DATA "); isData {
			k, err := strconv.Atoi(n)
			if err != nil {
				c.t.Fatalf("%s: bad +DATA header %q", req, l)
			}
			for i := 0; i < k; i++ {
				p, _ := c.line()
				out = append(out, p)
			}
		}
		return out
	}
}

// waitPushes blocks until n pushes have arrived in total.
func (c *scriptConn) waitPushes(n int) {
	c.t.Helper()
	for len(c.pushes) < n {
		l, ok := c.line()
		if !ok || !strings.HasPrefix(l, "*") {
			c.t.Fatalf("waiting for push %d: got %q (open=%t)", n, l, ok)
		}
		c.pushes = append(c.pushes, l)
	}
}

func class(reply []string) string { return strings.Fields(reply[0])[0] }

// runConformanceScript drives the script and returns one transcript entry
// per request — the full reply for +OK, the class alone otherwise — plus
// the pushes. shardStats is the class SHARDSTATS must answer with.
func runConformanceScript(t *testing.T, addr, shardStats string) (replies, pushes []string) {
	c := dialScript(t, addr)
	const pattern = "(a:P)-[:e]->(b:P)"
	frame, err := stream.AppendBinary(nil, turboflux.Insert(1, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	frame31, err := stream.AppendBinary(nil, turboflux.Insert(3, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		req    string
		body   string
		want   string // reply class
		ok     string // the exact +OK line, where the script pins it
		pushes int    // total pushes to wait for after the reply
	}{
		{req: "PING", want: "+OK"},
		{req: "FROBNICATE", want: "-ERR"},
		{req: "i 1 2", want: "-ERR"}, // short update
		// A failed batch consumes no sequence number: "v 1 0" below is 1.
		{req: "BATCH 2", body: "i 1 0 2\nnot a record\n", want: "-ERR"},
		{req: "REGISTER q " + pattern, want: "+OK"},
		{req: "REGISTER q " + pattern, want: "-ERR"},
		{req: "SUBSCRIBE nope", want: "-ERR"},
		{req: "LABEL vertex P", want: "+OK"},
		{req: "LABEL edge e", want: "+OK"},
		{req: "SUBSCRIBE q", want: "+OK"},
		{req: "SUBSCRIBE q", want: "-ERR"},
		{req: "UNSUBSCRIBE other", want: "-ERR"},
		{req: "v 1 0", want: "+OK"},
		{req: "v 2 0", want: "+OK"},
		{req: "v 3 0", want: "+OK"},
		{req: "i 1 0 2", want: "+OK", pushes: 1},
		{req: "BATCH 2", body: "i 2 0 3\nd 1 0 2\n", want: "+OK", pushes: 3},
		{req: fmt.Sprintf("BATCHB %d", len(frame)), body: string(frame), want: "+OK", pushes: 4},
		{req: "QUERIES", want: "+OK"},
		{req: "STATS", want: "+DATA"},
		{req: "SHARDSTATS", want: shardStats},
		{req: "REPLICATE 0", want: "-ERR"},
		{req: "PROMOTE", want: "-ERR"},
		{req: "UNREGISTER q", want: "+OK", pushes: 5}, // *EVICTED q
		{req: "UNSUBSCRIBE q", want: "-ERR"},          // the eviction ended it
		{req: "REGISTER q " + pattern, want: "+OK"},
		{req: "SUBSCRIBE q", want: "+OK"}, // resubscribe after eviction
		{req: "i 3 0 1", want: "+OK", pushes: 6},
		// Frames of one: a coordinator fans each to its shards as a single
		// line, and still acks it as a frame.
		{req: "BATCH 1", body: "d 3 0 1\n", want: "+OK", ok: "+OK 9 1 1", pushes: 7},
		{req: fmt.Sprintf("BATCHB %d", len(frame31)), body: string(frame31), want: "+OK", ok: "+OK 10 1 1", pushes: 8},
		// Two subscriptions on one shard (placement alternates: r on shard
		// 1, s beside q on shard 0): q stops while s emits, then resumes.
		{req: "REGISTER r " + pattern, want: "+OK"},
		{req: "REGISTER s " + pattern, want: "+OK"},
		{req: "SUBSCRIBE s", want: "+OK"},
		{req: "UNSUBSCRIBE q", want: "+OK"},
		{req: "d 3 0 1", want: "+OK", pushes: 9},
		{req: "SUBSCRIBE q", want: "+OK", ok: "+OK 11"},
		{req: "i 3 0 1", want: "+OK", pushes: 11},
		{req: "UNSUBSCRIBE q", want: "+OK"},
		{req: "UNSUBSCRIBE q", want: "-ERR"},
		{req: "QUIT", want: "+OK"},
	}
	for _, st := range steps {
		r := c.reply(st.req, []byte(st.body))
		got := class(r)
		if got != st.want {
			t.Errorf("%s: %q, want class %s", st.req, r[0], st.want)
		}
		if st.ok != "" && r[0] != st.ok {
			t.Errorf("%s: %q, want %q", st.req, r[0], st.ok)
		}
		if got == "+OK" {
			got = r[0] // +OK payloads must agree byte for byte
		}
		replies = append(replies, st.req+" => "+got)
		c.waitPushes(st.pushes)
	}
	if l, ok := c.line(); ok {
		t.Errorf("after QUIT: got %q, want the connection closed", l)
	}
	return replies, c.pushes
}

func TestFrontEndConformanceStress(t *testing.T) {
	plain := startShardServer(t)
	coord, _, _ := startCluster(t, 2, Options{})

	wantReplies, wantPushes := runConformanceScript(t, plain, "-ERR")
	gotReplies, gotPushes := runConformanceScript(t, coord, "+DATA")

	if len(gotReplies) != len(wantReplies) {
		t.Fatalf("coordinator answered %d requests, server %d", len(gotReplies), len(wantReplies))
	}
	for i := range wantReplies {
		if strings.HasPrefix(wantReplies[i], "SHARDSTATS ") {
			continue // the one class difference, asserted per side above
		}
		if gotReplies[i] != wantReplies[i] {
			t.Errorf("reply %d differs:\n  server:      %s\n  coordinator: %s", i, wantReplies[i], gotReplies[i])
		}
	}
	if got, want := strings.Join(gotPushes, "\n"), strings.Join(wantPushes, "\n"); got != want {
		t.Errorf("pushes differ:\n server:\n%s\n coordinator:\n%s", want, got)
	}
	// The script is only a conformance check if it exercised what it names.
	wantPush := []string{"*EVENT q 4 + 1 2", "*EVENT q 5 + 2 3", "*EVENT q 6 - 1 2", "*EVENT q 7 + 1 2", "*EVICTED q", "*EVENT q 8 + 3 1",
		"*EVENT q 9 - 3 1", "*EVENT q 10 + 3 1", "*EVENT s 11 - 3 1", "*EVENT q 12 + 3 1", "*EVENT s 12 + 3 1"}
	if got := strings.Join(wantPushes, "\n"); got != strings.Join(wantPush, "\n") {
		t.Errorf("server pushes:\n%s\nwant:\n%s", got, strings.Join(wantPush, "\n"))
	}
}

// labelFrontEnds starts a plain server and a coordinator over two shards,
// every process with its own dictionaries from dicts, and returns the two
// front ends' addresses.
func labelFrontEnds(t *testing.T, dicts func() (v, e *graph.Dict)) []struct{ name, addr string } {
	t.Helper()
	withDicts := func() server.Options {
		v, e := dicts()
		return server.Options{VertexLabels: v, EdgeLabels: e}
	}
	var shards []string
	for range 2 {
		shards = append(shards, startShardServerWith(t, withDicts()))
	}
	v, e := dicts()
	co, err := New(Options{Shards: shards, VertexLabels: v, EdgeLabels: e})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- co.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := co.Shutdown(ctx); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("coordinator serve: %v", err)
		}
	})
	return []struct{ name, addr string }{
		{"server", startShardServerWith(t, withDicts())},
		{"coordinator", co.Addr().String()},
	}
}

// TestNumericLabelsRefuseDecimalNamesStress runs REGISTER and LABEL against both
// front ends with numeric dictionaries (-numeric-labels): a decimal label
// that is none of the pre-interned 0..255 — "300", "007" — is refused with
// -ERR and interns nothing, so the next label a client interns still gets
// id 256; other names register as before.
func TestNumericLabelsRefuseDecimalNamesStress(t *testing.T) {
	numeric := func() (v, e *graph.Dict) { return graph.NumericDict(), graph.NumericDict() }
	for _, fe := range labelFrontEnds(t, numeric) {
		t.Run(fe.name, func(t *testing.T) {
			c := dialTest(t, fe.addr)
			for i, p := range []string{
				"(a:300)-[:1]->(b:2)",
				"(a:1)-[:2]->(b:2|007)",
				"(a:1)-[:300]->(b:2)",
			} {
				err := c.Register(fmt.Sprintf("q%d", i), p)
				if err == nil || !strings.Contains(err.Error(), "is not one of the numeric labels 0..255") {
					t.Errorf("REGISTER q%d %s: %v, want the numeric-label refusal", i, p, err)
				}
			}
			for _, l := range []struct{ kind, name string }{{"edge", "300"}, {"vertex", "007"}} {
				if id, err := c.Label(l.kind, l.name); err == nil || !strings.Contains(err.Error(), "is not one of the numeric labels 0..255") {
					t.Errorf("LABEL %s %s = %d, %v; want the numeric-label refusal", l.kind, l.name, id, err)
				}
			}
			if names, err := c.Queries(); err != nil || len(names) != 0 {
				t.Fatalf("queries after the refusals: %v, %v", names, err)
			}
			for _, kind := range []string{"vertex", "edge"} {
				if l, err := c.Label(kind, "Person"); err != nil || l != graph.NumericLabels {
					t.Errorf("LABEL %s Person = %d, %v; want %d, the first label after the numeric ones", kind, l, err, graph.NumericLabels)
				}
			}
			if err := c.Register("q", "(a:255)-[:0]->(b:Person)"); err != nil {
				t.Errorf("REGISTER of numeric and named labels: %v", err)
			}
		})
	}
}

// TestLabelDictionaryFullStress runs REGISTER and LABEL against both front ends
// with vertex dictionaries one name short of graph.MaxLabels: a request
// that would intern more names than are free is refused with -ERR before
// anything is interned, and the front end keeps serving. Interning past the
// bound would panic the process that owns the dictionary.
func TestLabelDictionaryFullStress(t *testing.T) {
	nearlyFull := func() (v, e *graph.Dict) {
		v = graph.NewDict()
		for i := range graph.MaxLabels - 1 {
			v.Intern("v" + strconv.Itoa(i))
		}
		return v, graph.NewDict()
	}
	const last = graph.MaxLabels - 1
	for _, fe := range labelFrontEnds(t, nearlyFull) {
		t.Run(fe.name, func(t *testing.T) {
			c := dialTest(t, fe.addr)
			if err := c.Register("q0", "(a:A)-[:e]->(b:B)"); err == nil || !strings.Contains(err.Error(), "label dictionary full") {
				t.Fatalf("REGISTER naming two new vertex labels with one free: %v, want the full-dictionary refusal", err)
			}
			if names, err := c.Queries(); err != nil || len(names) != 0 {
				t.Fatalf("queries after the refusal: %v, %v", names, err)
			}
			for _, step := range []struct {
				name string
				want turboflux.Label
				err  string
			}{
				{"A", last, ""},
				{"B", 0, "label dictionary full"},
				{"A", last, ""},
				{"v7", 7, ""},
			} {
				id, err := c.Label("vertex", step.name)
				if step.err == "" && (err != nil || id != step.want) {
					t.Fatalf("LABEL vertex %s = %d, %v; want %d", step.name, id, err, step.want)
				}
				if step.err != "" && (err == nil || !strings.Contains(err.Error(), step.err)) {
					t.Fatalf("LABEL vertex %s = %d, %v; want the full-dictionary refusal", step.name, id, err)
				}
			}
			if err := c.Register("q", "(a:A)-[:e]->(b:v7)"); err != nil {
				t.Fatalf("REGISTER of interned vertex labels: %v", err)
			}
		})
	}
}
