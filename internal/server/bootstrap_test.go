package server

import (
	"context"
	"runtime"
	"testing"
	"time"

	"turboflux"
)

// newWithBootstrap builds a server from a bootstrap history no one else
// references; freed is closed when the collector reclaims that history.
//
//go:noinline
func newWithBootstrap(t *testing.T, opt Options, freed chan struct{}) *Server {
	t.Helper()
	boot := make([]turboflux.Update, 0, 2000)
	for v := turboflux.VertexID(0); v < 1000; v++ {
		boot = append(boot, turboflux.DeclareVertex(v, turboflux.Label(v%3)))
	}
	for v := turboflux.VertexID(0); v < 1000; v++ {
		boot = append(boot, turboflux.Insert(v, 1, (v+1)%1000))
	}
	runtime.SetFinalizer(&boot[0], func(*turboflux.Update) { close(freed) })
	opt.Bootstrap = boot
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBootstrapNotRetained: once the store is open the decoded bootstrap
// (48 B an update plus a label slice per declaration — tens of megabytes
// for a real initial graph) must be garbage, in memory-only and in durable
// mode; the server used to keep it reachable through its options copy.
func TestBootstrapNotRetained(t *testing.T) {
	for _, mode := range []string{"memory", "durable"} {
		opt := Options{}
		if mode == "durable" {
			opt.DataDir, opt.Fsync = t.TempDir(), "none"
		}
		freed := make(chan struct{})
		s := newWithBootstrap(t, opt, freed)
		deadline := time.Now().Add(5 * time.Second)
		for collected := false; !collected; {
			runtime.GC()
			select {
			case <-freed:
				collected = true
			default:
				if time.Now().After(deadline) {
					t.Fatalf("%s: the bootstrap history is still reachable after server.New", mode)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("%s: shutdown: %v", mode, err)
		}
		cancel()
	}
}
