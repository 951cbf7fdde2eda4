package shard

import (
	"context"
	"strings"
	"testing"
	"time"

	"turboflux"
	"turboflux/internal/server"
)

// TestVertexIDBoundCoordinator: through a coordinator, an update naming a
// vertex ID past graph.MaxVertexID is refused at the front end — as a
// single line, a text BATCH and a BATCHB frame — with -ERR: the
// coordinator stays up, consumes no seq, forwards nothing, and its
// durable shards' data directories reopen with only the accepted history.
func TestVertexIDBoundCoordinator(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	// Registered first, so it runs last: after the shards have shut down.
	t.Cleanup(func() {
		replayed := 0
		for _, dir := range dirs {
			d, err := turboflux.OpenDurableMulti(dir, turboflux.DurableMultiOptions{})
			if err != nil {
				t.Errorf("reopening shard directory %s: %v", dir, err)
				continue
			}
			replayed += d.Recovery().Replayed
			d.Close() //tf:unchecked-ok test cleanup
		}
		if replayed == 0 {
			t.Error("the shards journaled none of the accepted updates")
		}
	})
	var shards []string
	for _, dir := range dirs {
		shards = append(shards, startShardServerWith(t, server.Options{DataDir: dir, Fsync: "none"}))
	}
	co, err := New(Options{Shards: shards})
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
	c := dialTest(t, co.Addr().String())

	if _, err := c.Insert(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	const huge = turboflux.VertexID(4_000_000_000)
	bad := []turboflux.Update{turboflux.Insert(1, 0, 3), turboflux.Insert(huge, 0, 1)}
	for name, send := range map[string]func() error{
		"single line": func() error { _, err := c.Insert(huge, 0, 1); return err },
		"BATCH":       func() error { _, err := c.Batch(bad); return err },
		"BATCHB":      func() error { _, err := c.BatchBinary(bad); return err },
	} {
		if err := send(); err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
			t.Fatalf("%s naming a vertex past the bound: err = %v, want a refusal", name, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("after the refused %s: %v", name, err)
		}
	}
	after, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"seq", "updates"} {
		if b, a := stat(t, before.Line("cluster").Uint, key), stat(t, after.Line("cluster").Uint, key); a != b {
			t.Fatalf("refused updates moved %s %d -> %d", key, b, a)
		}
	}
	seq := stat(t, before.Line("cluster").Uint, "seq")
	if ack, err := c.Insert(2, 0, 3); err != nil || ack.Seq != seq+1 {
		t.Fatalf("insert after the refusals: ack %+v, err %v; want seq %d", ack, err, seq+1)
	}
}
