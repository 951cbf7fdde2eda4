package server

import (
	"errors"
	"io"

	"turboflux"
	"turboflux/internal/stream"
)

// defaultQueueDepth is the per-subscriber event queue capacity when
// Options.QueueDepth is zero.
const defaultQueueDepth = 256

// Options configures a server (New).
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
}

// New builds a server over a fresh in-memory engine, or over the durable
// store in opt.DataDir, and returns its front end with what the store found
// on disk (the zero RecoveryInfo in memory-only mode). The server is one
// engine-owner goroutine (the actor) serializing all mutation and
// evaluation of a shared MultiEngine behind the Front's acceptor and
// per-connection goroutines; see the package comment for the wire protocol
// and DESIGN.md §10 for the architecture. The actor starts immediately;
// call Shutdown to release it even if Serve is never reached.
func New(opt Options) (*Front, turboflux.RecoveryInfo, error) {
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = defaultQueueDepth
	}
	if opt.Follow != "" && opt.DataDir == "" {
		return nil, turboflux.RecoveryInfo{}, errors.New("server: Follow requires DataDir (followers journal the replicated log)")
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
			return nil, turboflux.RecoveryInfo{}, err
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
				return nil, turboflux.RecoveryInfo{}, err
			}
		}
		eng = turboflux.NewMultiEngine(g)
	}
	eng.SetFanOutWorkers(opt.FanOutWorkers) //tf:actor-ok construction precedes actor start
	// The actor and the front end keep nothing of the Options: those hold
	// the bootstrap or its reader, garbage once the store is open.
	a := newActor(eng, vdict, edict, opt.Slow, opt.QueueDepth)
	a.front = NewFront("server", a)
	if opt.Follow != "" {
		a.role = roleFollower
		a.leaderAddr = opt.Follow
		a.link = &link{stop: make(chan struct{}), done: make(chan struct{})}
	}
	if st := eng.Store(); st != nil { //tf:actor-ok construction precedes actor start
		// The append tap fires on the actor goroutine (appends happen only
		// inside apply handlers), so follower feeds stay actor-confined.
		st.SetTap(a.shipFrames)
	}
	rec := eng.Recovery() //tf:actor-ok construction precedes actor start
	a.box.Start(a.handle, a.shutdown)
	if a.link != nil {
		//tf:goroutine replica-link
		go a.follow()
	}
	return a.front, rec, nil
}
