package server_test

import (
	"testing"

	"turboflux/internal/server"
	"turboflux/internal/server/servertest"
)

// TestShutdownMidBatchNoGoroutineLeak kills a plain server mid-BATCH; the
// coordinator's twin is in internal/shard. With QueueDepth 4 and PolicyBlock
// the actor can stall mid-batch on the silent subscriber's full queue, so
// Shutdown really does interrupt an in-flight BATCH.
func TestShutdownMidBatchNoGoroutineLeak(t *testing.T) {
	servertest.ShutdownMidBatch(t, func() (*server.Front, error) {
		f, _, err := server.New(server.Options{QueueDepth: 4, Slow: server.PolicyBlock})
		return f, err
	})
}
