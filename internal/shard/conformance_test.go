package shard

// Front-end conformance: a client cannot tell a coordinator from a single
// server. One request script runs over a raw socket against a plain
// server.Server and against a Coordinator over two in-process shards; the
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
	steps := []struct {
		req    string
		body   string
		want   string // reply class
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

func TestFrontEndConformance(t *testing.T) {
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
	wantPush := []string{"*EVENT q 4 + 1 2", "*EVENT q 5 + 2 3", "*EVENT q 6 - 1 2", "*EVENT q 7 + 1 2", "*EVICTED q", "*EVENT q 8 + 3 1"}
	if got := strings.Join(wantPushes, "\n"); got != strings.Join(wantPush, "\n") {
		t.Errorf("server pushes:\n%s\nwant:\n%s", got, strings.Join(wantPush, "\n"))
	}
}

// TestNumericLabelsRefuseDecimalNames runs REGISTER against both front
// ends with numeric dictionaries (-numeric-labels): a pattern naming a
// decimal label that is none of the pre-interned 0..255 — "300", "007" —
// is refused with -ERR and interns nothing, so the next label a client
// interns still gets id 256; other names register as before.
func TestNumericLabelsRefuseDecimalNames(t *testing.T) {
	numeric := func() server.Options {
		return server.Options{VertexLabels: graph.NumericDict(), EdgeLabels: graph.NumericDict()}
	}
	var shards []string
	for range 2 {
		shards = append(shards, startShardServerWith(t, numeric()))
	}
	opt := Options{Shards: shards, VertexLabels: graph.NumericDict(), EdgeLabels: graph.NumericDict()}
	co, err := New(opt)
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

	for _, fe := range []struct{ name, addr string }{
		{"server", startShardServerWith(t, numeric())},
		{"coordinator", co.Addr().String()},
	} {
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
