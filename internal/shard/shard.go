// Package shard implements the TurboFlux sharded cluster tier: a
// coordinator that partitions registered queries across N shard servers
// (plain internal/server instances, each holding a full graph replica).
// Clients reach it through the server's own front end — server.Front and
// server.Conn, with the router as their server.Backend — so a client
// cannot tell a coordinator from a single server.
//
// # Architecture
//
// Query-partitioned sharding with full replicas is exact and
// embarrassingly parallel: every shard applies the complete update
// stream in the coordinator's total order, but each continuous query is
// registered on exactly one shard, so the per-update evaluation work —
// the dominant cost with many registered queries — splits across shards.
//
//	clients ──► coordinator (router actor)
//	               │ REGISTER q → least-loaded shard
//	               │ updates    → every shard, one FIFO per shard
//	               ▼
//	        shard 0 … shard N-1   (turboflux-serve; may lead followers)
//
// The router actor owns the placement table and the coordinator
// sequence counter. Each shard has a fanner goroutine draining a FIFO
// task queue, so all shards observe the same total order; the router
// never waits on the network — connection goroutines collect the
// per-shard acknowledgments. Every ack is checked against the expected
// per-shard sequence number (attach base + fanned updates): a gap means
// the shard diverged (someone wrote to it directly) and the shard is
// marked down, fail-stop. A heartbeat prober sends each shard STATS, which
// the shard's actor must serve, and marks it down after consecutive misses.
//
// Label dictionaries must agree cluster-wide because updates carry
// numeric label ids. The coordinator parses every REGISTER pattern
// locally and fans newly interned names to all shards as LABEL requests
// in id order, asserting the returned ids match; shards must therefore
// start with dictionaries identical to the coordinator's (normally:
// empty).
//
// Subscriptions are relayed: a client connection holds one upstream
// connection per shard it subscribes on, carrying all its subscriptions
// to that shard's queries, and the shard's pushed lines are forwarded
// verbatim, a buffered run at a time. Per-query event order and sequence
// numbers are exactly the shard's — which, by the total-order fan-out,
// are exactly a single server's. Slow-consumer policy is the shard's own,
// applied per subscriber.
package shard

import (
	"errors"
	"fmt"
	"time"

	"turboflux"
	"turboflux/internal/server"
)

// Defaults for Options' zero values.
const (
	defaultDialTimeout       = 2 * time.Second
	defaultRequestTimeout    = 5 * time.Second
	defaultHeartbeatInterval = 500 * time.Millisecond
	defaultHeartbeatMisses   = 3
	// fannerQueueDepth bounds each shard's pending task FIFO; a full queue
	// backpressures the router (and through it the writing clients).
	fannerQueueDepth = 1024
)

// Options configures a coordinator.
type Options struct {
	// Shards lists the shard server addresses. At least one is required;
	// shard ids are positions in this slice.
	Shards []string

	// VertexLabels / EdgeLabels seed the coordinator's label dictionaries.
	// They must match the shards' dictionaries exactly (normally both are
	// empty); divergence is detected on the first LABEL sync and marks the
	// offending shard down.
	VertexLabels, EdgeLabels *turboflux.Dict

	// DialTimeout bounds every connect to a shard (default 2s).
	DialTimeout time.Duration
	// RequestTimeout bounds every request/response exchange with a shard
	// (default 5s). A timed-out exchange poisons that connection and marks
	// the shard down, so one hung shard cannot block the router forever.
	RequestTimeout time.Duration
	// HeartbeatInterval is the per-shard liveness probe period (default
	// 500ms).
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many consecutive failed probes mark a shard
	// down (default 3).
	HeartbeatMisses int
}

func (o *Options) setDefaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = defaultDialTimeout
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = defaultRequestTimeout
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = defaultHeartbeatInterval
	}
	if o.HeartbeatMisses <= 0 {
		o.HeartbeatMisses = defaultHeartbeatMisses
	}
}

// New connects to every shard, starts the router and returns the cluster
// front end: a server.Front over the router, the type server.New returns,
// which accepts the ordinary line protocol. Its Shutdown stops the router
// last, draining the task queues into the shards and closing the shard
// clients. All shards must be reachable and writable (a follower shard is
// rejected); their current sequence numbers become the per-shard ack bases
// for gap detection.
func New(opt Options) (*server.Front, error) {
	if len(opt.Shards) == 0 {
		return nil, errors.New("shard: at least one shard address is required")
	}
	opt.setDefaults()
	vdict := opt.VertexLabels
	if vdict == nil {
		vdict = turboflux.NewDict()
	}
	edict := opt.EdgeLabels
	if edict == nil {
		edict = turboflux.NewDict()
	}
	var shards []*shardHandle
	for i, addr := range opt.Shards {
		h, err := attach(i, addr, opt)
		if err != nil {
			for _, prev := range shards {
				prev.closeClients()
			}
			return nil, fmt.Errorf("shard: attaching shard %d (%s): %w", i, addr, err)
		}
		shards = append(shards, h)
	}
	r := newRouter(shards, vdict, edict, opt)
	r.front = server.NewFront("shard", r)
	r.box.Start(r.handle, r.shutdown)
	for _, h := range shards {
		h.start()
	}
	return r.front, nil
}
