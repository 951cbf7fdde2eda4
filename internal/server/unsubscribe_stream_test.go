package server_test

import (
	"testing"

	"turboflux/internal/server"
	"turboflux/internal/server/servertest"
)

// TestUnsubscribeEndsStreamStress: on a plain server an UNSUBSCRIBE's reply
// follows every line of the stream it ends, however an emitting update
// races it. The coordinator's twin is in internal/shard.
func TestUnsubscribeEndsStreamStress(t *testing.T) {
	servertest.UnsubscribeEndsStream(t, func() (*server.Front, error) {
		f, _, err := server.New(server.Options{})
		return f, err
	})
}
