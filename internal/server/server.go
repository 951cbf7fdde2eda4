package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"turboflux"
	"turboflux/internal/replica"
)

// errServerClosed is returned to connection goroutines whose requests race
// the actor's shutdown.
var errServerClosed = errors.New("server: shut down")

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
	// dictionaries exactly as for OpenDurable.
	VertexLabels, EdgeLabels *turboflux.Dict

	// Bootstrap is an optional initial-graph history applied (and, in
	// durable mode, journaled) when the store is fresh.
	Bootstrap []turboflux.Update

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
	// ReplFeedDepth is the per-follower live-chunk queue capacity on a
	// leader (default 256). A follower that falls further behind than this
	// many queued chunks is disconnected (feed overrun) and must
	// reconnect to catch up from its applied LSN.
	ReplFeedDepth int
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
	queueDepth int // Options.QueueDepth, defaulted
	actor      *actor
	host       engineHost

	ln   net.Listener
	link *replica.Link // follower mode; nil on a born leader

	mu      sync.Mutex
	conns   map[*conn]struct{}
	connSeq uint64

	connWG    sync.WaitGroup
	connCount atomic.Int64

	stopping  chan struct{}
	stopOnce  sync.Once
	actorOnce sync.Once
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
		host    engineHost
		durable *turboflux.DurableMultiEngine
		vdict   = opt.VertexLabels
		edict   = opt.EdgeLabels
	)
	if opt.DataDir != "" {
		d, err := turboflux.OpenDurableMulti(opt.DataDir, turboflux.DurableMultiOptions{
			Fsync:         opt.Fsync,
			VertexLabels:  opt.VertexLabels,
			EdgeLabels:    opt.EdgeLabels,
			Bootstrap:     opt.Bootstrap,
			FanOutWorkers: opt.FanOutWorkers,
		})
		if err != nil {
			return nil, err
		}
		durable = d
		host = d
		vdict = d.VertexLabels() //tf:actor-ok construction precedes actor start
		edict = d.EdgeLabels()   //tf:actor-ok construction precedes actor start
	} else {
		if vdict == nil {
			vdict = turboflux.NewDict()
		}
		if edict == nil {
			edict = turboflux.NewDict()
		}
		g := turboflux.NewGraph()
		for _, u := range opt.Bootstrap {
			u.Apply(g)
		}
		m := turboflux.NewMultiEngine(g)
		m.SetFanOutWorkers(opt.FanOutWorkers) //tf:actor-ok construction precedes actor start
		host = m
	}
	// The server keeps the one option it reads later, not the Options:
	// those hold the decoded bootstrap, garbage once the store is open.
	s := &Server{
		queueDepth: opt.QueueDepth,
		host:       host,
		conns:      make(map[*conn]struct{}),
		stopping:   make(chan struct{}),
	}
	s.actor = newActor(host, durable, vdict, edict, opt.Slow, opt.QueueDepth, &s.connCount)
	if opt.ReplFeedDepth > 0 {
		s.actor.feedDepth = opt.ReplFeedDepth
	}
	if opt.Follow != "" {
		s.actor.role = roleFollower
		s.actor.leaderAddr = opt.Follow
	}
	if durable != nil {
		// The append tap fires on the actor goroutine (appends happen only
		// inside apply handlers), so follower feeds stay actor-confined.
		durable.Store().SetTap(s.actor.shipFrames) //tf:actor-ok construction precedes actor start
	}
	//tf:goroutine engine-owner-actor
	go s.actor.run()
	if opt.Follow != "" {
		s.link = replica.NewLink(opt.Follow, s.linkCallbacks(), opt.ReplOptions)
		s.link.Start()
	}
	return s, nil
}

// linkCallbacks wires the replication link to the engine-owner actor, so
// snapshot seeding and frame application stay on the actor goroutine
// (actor-confinement holds for replicated state too).
func (s *Server) linkCallbacks() replica.Callbacks {
	return replica.Callbacks{
		Applied: func() uint64 {
			resp, err := s.actor.call(request{kind: reqReplLSN})
			if err != nil {
				return 0
			}
			return resp.seq
		},
		Seed: func(lsn uint64, data []byte) (uint64, error) {
			resp, err := s.actor.call(request{kind: reqReplSeed, data: data})
			if err != nil {
				return 0, err
			}
			return resp.seq, resp.err
		},
		Apply: func(first uint64, count int, frames []byte) (uint64, error) {
			resp, err := s.actor.call(request{kind: reqReplFrames, lsn: first, count: count, data: frames})
			if err != nil {
				return 0, err
			}
			return resp.seq, resp.err
		},
		Status: func(st replica.State) {
			s.actor.send(request{kind: reqReplStatus, state: st}) //tf:unchecked-ok best-effort status report
		},
	}
}

// stopLink stops the follower's replication link, if any. Idempotent and
// safe to call concurrently (PROMOTE races Shutdown); it blocks until the
// link goroutine has exited, so no replication callback runs afterwards.
func (s *Server) stopLink() {
	if s.link != nil {
		s.link.Stop()
	}
}

// Recovery returns what a durable-mode server found on disk; the zero
// value in memory-only mode.
func (s *Server) Recovery() turboflux.RecoveryInfo {
	if s.actor.durable == nil {
		return turboflux.RecoveryInfo{}
	}
	return s.actor.durable.Recovery() //tf:actor-ok recovery info is immutable after open
}

// Listen binds the TCP address ("host:port"; ":0" picks a free port).
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listener address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until Shutdown. It returns nil on graceful
// shutdown, or the first fatal accept error.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.stopping:
				return nil
			default:
				return fmt.Errorf("server: accept: %w", err)
			}
		}
		s.mu.Lock()
		select {
		case <-s.stopping:
			s.mu.Unlock()
			nc.Close() //tf:unchecked-ok rejecting during shutdown
			continue
		default:
		}
		s.connSeq++
		c := newConn(s, nc, s.connSeq)
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connCount.Add(1)
		s.connWG.Add(1)
		//tf:goroutine conn-reader
		go func() {
			defer s.connWG.Done()
			c.serve()
		}()
	}
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	if err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// snapshotConns copies the live connection set under s.mu so callers can
// touch the sockets without holding the lock.
func (s *Server) snapshotConns() []*conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	conns := make([]*conn, 0, len(s.conns))
	//tf:unordered-ok snapshot; callers' per-conn operations are order-independent
	for c := range s.conns {
		conns = append(conns, c)
	}
	return conns
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.connCount.Add(-1)
}

// Shutdown stops the server gracefully: stop accepting, wake every
// connection reader so in-flight requests finish, wait for the writers to
// flush the outboxes, then stop the actor — which drains the
// requests already accepted and closes the WAL cleanly. If ctx expires
// first, remaining connections are force-closed (their writers then drain
// to a dead socket, so nothing blocks) and shutdown still completes;
// ctx's error is reported after the store is closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() {
		close(s.stopping)
	})
	if s.ln != nil {
		s.ln.Close() //tf:unchecked-ok shutting down
	}
	// Stop the replication link first: its callbacks call into the actor,
	// which must still be running while the link winds down.
	s.stopLink()
	// Snapshot the live connections and do the socket calls outside s.mu:
	// a deadline or close syscall under the lock would stall every conn
	// teardown (removeConn) behind it (lock-scope).
	for _, c := range s.snapshotConns() {
		c.nc.SetReadDeadline(time.Now()) //tf:unchecked-ok best-effort wake
	}

	connsDone := make(chan struct{})
	//tf:goroutine shutdown-conn-waiter
	go func() {
		s.connWG.Wait()
		close(connsDone)
	}()
	var ctxErr error
	select {
	case <-connsDone:
	case <-ctx.Done():
		ctxErr = ctx.Err()
		for _, c := range s.snapshotConns() {
			c.nc.Close() //tf:unchecked-ok force close
		}
		<-connsDone
	}

	s.actorOnce.Do(func() {
		close(s.actor.stop)
	})
	<-s.actor.done
	if s.actor.closeErr != nil {
		return s.actor.closeErr
	}
	return ctxErr
}
