package shard

import (
	"testing"

	"turboflux/internal/server"
	"turboflux/internal/server/servertest"
)

// TestCoordinatorUnsubscribeEndsStreamStress is the coordinator twin of
// internal/server's TestUnsubscribeEndsStreamStress: through two shards, an
// UNSUBSCRIBE's reply still follows every line of the stream it ends,
// whether q's upstream closes with it or stays open for r.
func TestCoordinatorUnsubscribeEndsStreamStress(t *testing.T) {
	shards := []string{startShardServer(t), startShardServer(t)}
	servertest.UnsubscribeEndsStream(t, func() (*server.Front, error) {
		return New(Options{Shards: shards})
	})
}
