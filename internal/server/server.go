package server

import (
	"context"
	"errors"
	"io"
	"net"

	"turboflux"
	"turboflux/internal/replica"
	"turboflux/internal/stream"
)

// defaultQueueDepth is the per-subscriber event queue capacity when
// Options.QueueDepth is zero.
const defaultQueueDepth = 256

// Options configures a Server.
type Options struct {
	// QueueDepth is the per-subscriber bounded event queue capacity
	// (default 256). Together with Slow it defines the slow-consumer
	// behavior.
	QueueDepth int
	// Slow selects what happens when a subscriber's queue is full:
	// PolicyBlock (default, lossless backpressure), PolicyDrop or
	// PolicyEvict.
	Slow SlowPolicy

	// DataDir, when non-empty, backs the server with a durable store
	// (turboflux.OpenDurableMulti): every accepted update is journaled to
	// the write-ahead log before it is evaluated or acknowledged, and a
	// restarted server recovers the graph from disk.
	DataDir string
	// Fsync is the durable-mode WAL sync policy ("always", "interval",
	// "none"); ignored without DataDir.
	Fsync string

	// VertexLabels / EdgeLabels, when non-nil, seed the label
	// dictionaries that REGISTER patterns and LABEL lookups resolve
	// through. In durable mode they are merged with the recovered
	// dictionaries exactly as for turboflux.OpenDurableMulti.
	VertexLabels, EdgeLabels *turboflux.Dict

	// BootstrapFrom is an optional initial-graph history in the text
	// stream format, read only when the store is fresh: decoded a window
	// at a time and applied (and, in durable mode, journaled) as it is
	// read (see turboflux.DurableMultiOptions).
	BootstrapFrom io.Reader

	// FanOutWorkers sizes the engine's multi-query fan-out worker pool
	// (default GOMAXPROCS; 1 runs every evaluation inline on the actor).
	// The actor still serializes updates — the pool parallelizes each
	// run's evaluations across registered queries.
	FanOutWorkers int

	// Follow, when non-empty, starts the server as a read-only follower
	// replicating from the leader at this address (requires DataDir). The
	// follower journals every replicated update into its own WAL, serves
	// queries and subscriptions locally, and rejects writes until PROMOTE.
	Follow string
	// ReplOptions tunes the follower's replication-link timing (dial and
	// read timeouts, reconnect backoff).
	ReplOptions replica.Options
}

// Server is the TurboFlux network server: one engine-owner goroutine (the
// actor) serializing all mutation and evaluation of a shared MultiEngine,
// an acceptor, and per connection one reader goroutine plus, once it
// subscribes, one writer goroutine for its pushes. See the package comment
// for the wire protocol and DESIGN.md §10 for the architecture.
type Server struct {
	front *Front // listener, connections, shutdown; serves actor
	actor *actor
}

// New builds a server over a fresh in-memory engine, or over the durable
// store in opt.DataDir. The actor starts immediately; call Shutdown to
// release it even if Serve is never reached.
func New(opt Options) (*Server, error) {
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = defaultQueueDepth
	}
	if opt.Follow != "" && opt.DataDir == "" {
		return nil, errors.New("server: Follow requires DataDir (followers journal the replicated log)")
	}
	var (
		eng   *turboflux.MultiEngine
		err   error
		vdict = opt.VertexLabels
		edict = opt.EdgeLabels
	)
	if opt.DataDir != "" {
		eng, err = turboflux.OpenDurableMulti(opt.DataDir, turboflux.DurableMultiOptions{
			Fsync:         opt.Fsync,
			VertexLabels:  opt.VertexLabels,
			EdgeLabels:    opt.EdgeLabels,
			BootstrapFrom: opt.BootstrapFrom,
		})
		if err != nil {
			return nil, err
		}
		vdict = eng.VertexLabels() //tf:actor-ok construction precedes actor start
		edict = eng.EdgeLabels()   //tf:actor-ok construction precedes actor start
	} else {
		if vdict == nil {
			vdict = turboflux.NewDict()
		}
		if edict == nil {
			edict = turboflux.NewDict()
		}
		g := turboflux.NewGraph()
		if opt.BootstrapFrom != nil {
			if err := stream.ApplyText(g, opt.BootstrapFrom); err != nil {
				return nil, err
			}
		}
		eng = turboflux.NewMultiEngine(g)
	}
	eng.SetFanOutWorkers(opt.FanOutWorkers) //tf:actor-ok construction precedes actor start
	// The server keeps the actor and the front end, not the Options: those
	// hold the bootstrap or its reader, garbage once the store is open. The
	// front is made first because STATS reads its connection count.
	s := &Server{front: NewFront("server", nil)}
	s.actor = newActor(eng, vdict, edict, opt.Slow, opt.QueueDepth, &s.front.connCount)
	s.front.be = s.actor
	if opt.Follow != "" {
		s.actor.role = roleFollower
		s.actor.leaderAddr = opt.Follow
		s.actor.link = replica.NewLink(opt.Follow, s.actor.linkCallbacks(), opt.ReplOptions)
	}
	if st := eng.Store(); st != nil { //tf:actor-ok construction precedes actor start
		// The append tap fires on the actor goroutine (appends happen only
		// inside apply handlers), so follower feeds stay actor-confined.
		st.SetTap(s.actor.shipFrames)
	}
	s.actor.box.Start(s.actor.handle, s.actor.shutdown)
	if s.actor.link != nil {
		s.actor.link.Start()
	}
	return s, nil
}

// Recovery returns what a durable-mode server found on disk; the zero
// value in memory-only mode.
func (s *Server) Recovery() turboflux.RecoveryInfo {
	return s.actor.eng.Recovery() //tf:actor-ok recovery info is immutable after open
}

// Listen binds the TCP address ("host:port"; ":0" picks a free port).
func (s *Server) Listen(addr string) error { return s.front.Listen(addr) }

// Addr returns the bound listener address (nil before Listen).
func (s *Server) Addr() net.Addr { return s.front.Addr() }

// Serve accepts connections until Shutdown. It returns nil on graceful
// shutdown, or the first fatal accept error.
func (s *Server) Serve() error { return s.front.Serve() }

// Shutdown stops the server gracefully (Front.Shutdown): stop accepting,
// let in-flight requests finish and the writers flush the outboxes, then
// stop the actor — which drains the requests already accepted and closes
// the WAL cleanly. A follower's replication link stops first: its
// callbacks call into the actor, which must still be running while the
// link winds down. If ctx expires, remaining connections are force-closed
// and shutdown still completes; ctx's error is reported after the store is
// closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.actor.stopLink()
	return s.front.Shutdown(ctx)
}
