package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"turboflux"
	"turboflux/internal/workload"
)

// bootText is ups in the text stream format, for Options.BootstrapFrom.
func bootText(t *testing.T, ups []turboflux.Update) io.Reader {
	t.Helper()
	var text bytes.Buffer
	if err := turboflux.EncodeStream(&text, ups); err != nil {
		t.Fatal(err)
	}
	return &text
}

// bootHistory is a bootstrap of 1000 labeled vertices on a ring.
func bootHistory() []turboflux.Update {
	boot := make([]turboflux.Update, 0, 2000)
	for v := turboflux.VertexID(0); v < 1000; v++ {
		boot = append(boot, turboflux.DeclareVertex(v, turboflux.Label(v%3)))
	}
	for v := turboflux.VertexID(0); v < 1000; v++ {
		boot = append(boot, turboflux.Insert(v, 1, (v+1)%1000))
	}
	return boot
}

// finalized closes the returned channel once obj is collected.
func finalized[T any](obj *T) <-chan struct{} {
	done := make(chan struct{})
	runtime.SetFinalizer(obj, func(*T) { close(done) })
	return done
}

// bufferSpy reads the bootstrap text and remembers the first buffer it is
// read into, the decoder's read buffer.
type bufferSpy struct {
	r   io.Reader
	buf *byte
}

func (s *bufferSpy) Read(p []byte) (int, error) {
	if s.buf == nil && len(p) > 0 {
		s.buf = &p[0]
	}
	return s.r.Read(p)
}

// newWithBootstrapFrom builds a server from the bootstrap's text; the
// channels close when the collector reclaims the reader and the read
// buffer the decoder filled from it.
//
//go:noinline
func newWithBootstrapFrom(t *testing.T, opt Options) (*Front, []<-chan struct{}) {
	t.Helper()
	spy := &bufferSpy{r: bootText(t, bootHistory())}
	opt.BootstrapFrom = spy
	s, _, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s, []<-chan struct{}{finalized(spy), finalized(spy.buf)}
}

// TestBootstrapNotRetained: once the store is open the bootstrap must be
// garbage, in memory-only and in durable mode; the server used to keep it
// reachable through its options copy. That is the reader and the decoder's
// read buffer. (TestDecodeWindowsNotRetained in internal/stream covers the
// window and its label scratch.)
func TestBootstrapNotRetained(t *testing.T) {
	for _, mode := range []string{"memory", "durable"} {
		opt := Options{}
		if mode == "durable" {
			opt.DataDir, opt.Fsync = t.TempDir(), "none"
		}
		s, freed := newWithBootstrapFrom(t, opt)
		// A poll: a finalizer runs only after a collection finds its
		// object unreachable, so each round collects before it looks.
		deadline := time.Now().Add(5 * time.Second)
		for _, ch := range freed {
			waitUntil(t, time.Until(deadline), mode+": the bootstrap collected after server.New", func() bool {
				runtime.GC()
				select {
				case <-ch:
					return true
				default:
					return false
				}
			})
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("%s: shutdown: %v", mode, err)
		}
		cancel()
	}
}

// stoppedGraph shuts s down and returns the canonical encoding of its
// graph, which nothing mutates once the actor has stopped.
func stoppedGraph(t *testing.T, s *Front) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	g := s.be.(*actor).eng.Graph() //tf:actor-ok the actor has stopped
	if err := g.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestServerBootstrapFromEquivalence: a server bootstrapped from the text
// of a generated g0 holds the same graph in memory and in durable mode,
// and durable, it recovers that graph without reading the text again.
// (The root package's TestBootstrapFromEquivalence holds a history and its
// text to the same WAL.)
func TestServerBootstrapFromEquivalence(t *testing.T) {
	g := workload.LSBench(workload.LSBenchConfig{Users: 300, Seed: 7}).Graph
	var ups []turboflux.Update
	g.ForEachVertex(func(v turboflux.VertexID) { ups = append(ups, turboflux.DeclareVertex(v, g.Labels(v)...)) })
	g.ForEachEdge(func(e turboflux.Edge) { ups = append(ups, turboflux.Insert(e.From, e.Label, e.To)) })
	start := func(opt Options) (*Front, turboflux.RecoveryInfo) {
		s, rec, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		return s, rec
	}

	mem, _ := start(Options{BootstrapFrom: bootText(t, ups)})
	want := stoppedGraph(t, mem)
	dir := t.TempDir()
	if fresh, _ := start(Options{DataDir: dir, Fsync: "none", BootstrapFrom: bootText(t, ups)}); !bytes.Equal(stoppedGraph(t, fresh), want) {
		t.Fatal("durable mode: the graph differs from memory mode's")
	}
	s, rec := start(Options{DataDir: dir, Fsync: "none", BootstrapFrom: unreadable{t}})
	if rec.Fresh {
		t.Fatal("the store reopened fresh")
	}
	if got := stoppedGraph(t, s); !bytes.Equal(got, want) {
		t.Fatal("the recovered graph differs")
	}
}

// unreadable fails the test on its first Read.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("a recovered store read its bootstrap")
	return 0, errors.New("unreadable")
}

// TestServerBootstrapFromErrors: a malformed line fails New by its line in
// memory mode too.
func TestServerBootstrapFromErrors(t *testing.T) {
	_, _, err := New(Options{BootstrapFrom: strings.NewReader("v 1 0\n\nx 1\n")})
	if err == nil || err.Error() != `stream: line 3: unknown op "x"` {
		t.Fatalf("memory mode: error %v", err)
	}
}
