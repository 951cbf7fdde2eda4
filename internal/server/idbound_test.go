package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"turboflux"
)

// hugeID is a vertex ID past graph.MaxVertexID: before the bound, a line
// naming it sized the dense vertex table by it and the process died out of
// memory, and because the WAL journals before applying, every restart on
// the data directory replayed the record and died again.
const hugeID = turboflux.VertexID(4_000_000_000)

// refusesHugeIDs sends an update naming hugeID as a single line, a text
// BATCH and a BATCHB frame, and checks that each is refused with -ERR
// naming the bound, that the connection stays usable and that no seq was
// consumed.
func refusesHugeIDs(t *testing.T, c *Client) {
	t.Helper()
	before, err := c.StatsInfo()
	if err != nil {
		t.Fatal(err)
	}
	bad := []turboflux.Update{turboflux.Insert(1, 0, 2), turboflux.Insert(hugeID, 0, 1)}
	checks := []struct {
		name string
		send func() error
	}{
		{"single line", func() error { _, err := c.Insert(hugeID, 0, 1); return err }},
		{"declaration", func() error { _, err := c.DeclareVertex(turboflux.NoVertex, 1); return err }},
		{"BATCH", func() error { _, err := c.Batch(bad); return err }},
		{"BATCHB", func() error { _, err := c.BatchBinary(bad); return err }},
	}
	for _, ck := range checks {
		err := ck.send()
		if err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
			t.Fatalf("%s naming a vertex past the bound: err = %v, want a refusal", ck.name, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("after the refused %s: %v", ck.name, err)
		}
	}
	after, err := c.StatsInfo()
	if err != nil {
		t.Fatal(err)
	}
	if after.Seq != before.Seq || after.Updates != before.Updates {
		t.Fatalf("refused updates moved seq %d -> %d, updates %d -> %d", before.Seq, after.Seq, before.Updates, after.Updates)
	}
}

// TestVertexIDBound: a served update naming a vertex ID past
// graph.MaxVertexID is refused at the front end — the server stays up, no
// seq is consumed, nothing is journaled — so the data directory reopens.
func TestVertexIDBound(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{DataDir: dir, Fsync: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	refusesHugeIDs(t, c)
	if ack, err := c.Insert(2, 0, 3); err != nil || ack.Seq != 2 {
		t.Fatalf("insert after the refusals: ack %+v, err %v; want seq 2", ack, err)
	}
	c.Close() //tf:unchecked-ok test teardown
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}

	d, err := turboflux.OpenDurableMulti(dir, turboflux.DurableMultiOptions{})
	if err != nil {
		t.Fatalf("reopening the data directory: %v", err)
	}
	defer d.Close() //tf:unchecked-ok test cleanup
	if rec := d.Recovery(); rec.Replayed != 2 || rec.TruncatedBytes != 0 {
		t.Errorf("reopen replayed %d updates (%d torn bytes), want the 2 accepted ones", rec.Replayed, rec.TruncatedBytes)
	}
}

// TestVertexIDBoundBootstrap: a bootstrap history naming a vertex past the
// bound fails New with an error instead of sizing the graph by it.
func TestVertexIDBoundBootstrap(t *testing.T) {
	boot := []turboflux.Update{turboflux.Insert(1, 0, 2), turboflux.DeclareVertex(hugeID)}
	for _, dir := range []string{"", t.TempDir()} {
		if _, err := New(Options{DataDir: dir, Bootstrap: boot}); err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
			t.Errorf("data dir %q: New = %v, want the bound's error", dir, err)
		}
		src := strings.NewReader("i 1 0 2\ni 3 0 4000000000\n")
		if _, err := New(Options{DataDir: dir, BootstrapFrom: src}); err == nil || !strings.Contains(err.Error(), "line 2: stream: vertex id 4000000000 exceeds") {
			t.Errorf("data dir %q: New from text = %v, want the bound's error at line 2", dir, err)
		}
	}
}
