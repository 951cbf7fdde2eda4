// Package servertest holds the front-end tests that internal/server and
// internal/shard both run: one body, driven against a plain Server and
// against a shard coordinator, because the two serve through one
// server.Front.
package servertest

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"turboflux"
	"turboflux/internal/server"
)

// ShutdownMidBatch is the dynamic complement of the goroutine-lifecycle
// analyzer: it shuts the front end that start builds down while a large
// BATCH is in flight and a subscriber is not reading — with a context
// deadline short enough to hit the force-close path — and asserts that
// every goroutine started since (backend actor, accept loop, conn readers,
// writers, relays, client read loops) exits, via a runtime.NumGoroutine
// delta with retry-loop settling. Whatever start depends on (a
// coordinator's shard servers) must be running before the call, so it is
// part of the baseline; its slow-consumer setting should be a small
// PolicyBlock queue, so the batch can stall on the silent subscriber.
func ShutdownMidBatch(t *testing.T, start func() (server.FrontEnd, error)) {
	baseline := runtime.NumGoroutine()

	fe, err := start()
	if err != nil {
		t.Fatal(err)
	}
	if err := fe.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	//tf:goroutine test-accept-loop
	go func() { serveDone <- fe.Serve() }()
	addr := fe.Addr().String()

	admin, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := admin.Register("q", "(a:P)-[:e]->(b:P)"); err != nil {
		t.Fatal(err)
	}
	// A subscriber that never drains.
	slow, err := server.DialWith(addr, server.DialOptions{EventBuf: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Subscribe("q"); err != nil {
		t.Fatal(err)
	}

	// Fire a batch big enough to outlive the shutdown deadline.
	ups := make([]turboflux.Update, 0, 4096)
	for i := 0; i < 4096; i++ {
		v := turboflux.VertexID(i%64 + 1)
		ups = append(ups, turboflux.Insert(v, 0, v+1))
	}
	batchErr := make(chan error, 1)
	//tf:goroutine test-batch-sender
	go func() {
		_, err := admin.Batch(ups)
		batchErr <- err
	}()

	// Let the batch reach the backend, then shut down with a deadline that
	// can expire while it is still in flight.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := fe.Shutdown(ctx); err != nil && err != context.DeadlineExceeded {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	<-batchErr    // whatever the outcome, the exchange must terminate
	admin.Close() //tf:unchecked-ok test teardown
	slow.Close()  //tf:unchecked-ok test teardown

	// Goroutine counts settle asynchronously (conn teardowns race the
	// Shutdown return), so retry before judging.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline=%d now=%d\n%s",
				baseline, runtime.NumGoroutine(), fmt.Sprintf("%.4000s", buf[:n]))
		}
		time.Sleep(20 * time.Millisecond)
	}
}
