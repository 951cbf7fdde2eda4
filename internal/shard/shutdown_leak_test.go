package shard

import (
	"testing"

	"turboflux/internal/server"
	"turboflux/internal/server/servertest"
)

// TestCoordinatorShutdownMidBatchNoGoroutineLeakStress is the coordinator twin of
// internal/server's TestShutdownMidBatchNoGoroutineLeak — the same body,
// because it is the same Shutdown. The slow-consumer policy is the shards'
// (a small PolicyBlock queue), and the shards are up before the helper
// takes its goroutine baseline: what must be gone afterwards is everything
// the coordinator started, on its side and — its control, heartbeat and
// relay connections — on theirs.
func TestCoordinatorShutdownMidBatchNoGoroutineLeakStress(t *testing.T) {
	slow := server.Options{QueueDepth: 4, Slow: server.PolicyBlock}
	shards := []string{startShardServerWith(t, slow), startShardServerWith(t, slow)}
	servertest.ShutdownMidBatch(t, func() (*server.Front, error) {
		return New(Options{Shards: shards})
	})
}
