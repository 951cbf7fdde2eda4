package server

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Front is the network front end of one Backend: the listener, the accept
// loop, the live connection set and the shutdown sequence. server.New
// returns one over its actor and shard.New one over its router; the name
// each constructs it with ("server", "shard") prefixes the few error
// messages the front end words itself.
type Front struct {
	name string
	be   Backend
	ln   net.Listener

	mu      sync.Mutex
	conns   map[*Conn]struct{}
	connSeq uint64

	connWG    sync.WaitGroup
	connCount atomic.Int64

	stopping chan struct{}
	stopOnce sync.Once
}

// NewFront builds the front end of be.
func NewFront(name string, be Backend) *Front {
	return &Front{
		name:     name,
		be:       be,
		conns:    make(map[*Conn]struct{}),
		stopping: make(chan struct{}),
	}
}

// Conns returns the number of live connections (STATS).
func (f *Front) Conns() int64 { return f.connCount.Load() }

// Listen binds the TCP address ("host:port"; ":0" picks a free port).
func (f *Front) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	f.ln = ln
	return nil
}

// Addr returns the bound listener address (nil before Listen).
func (f *Front) Addr() net.Addr {
	if f.ln == nil {
		return nil
	}
	return f.ln.Addr()
}

// Serve accepts connections until Shutdown. It returns nil on graceful
// shutdown, or the first fatal accept error.
func (f *Front) Serve() error {
	if f.ln == nil {
		return fmt.Errorf("%s: Serve before Listen", f.name)
	}
	for {
		nc, err := f.ln.Accept()
		if err != nil {
			select {
			case <-f.stopping:
				return nil
			default:
				return fmt.Errorf("%s: accept: %w", f.name, err)
			}
		}
		f.mu.Lock()
		select {
		case <-f.stopping:
			f.mu.Unlock()
			nc.Close() //tf:unchecked-ok rejecting during shutdown
			continue
		default:
		}
		f.connSeq++
		c := &Conn{
			Wire:  NewWire(nc),
			front: f,
			be:    f.be,
			nc:    nc,
			id:    f.connSeq,
			subs:  make(map[string]Subscription),
		}
		f.conns[c] = struct{}{}
		f.mu.Unlock()
		f.connCount.Add(1)
		f.connWG.Add(1)
		//tf:goroutine conn-reader
		go func() {
			defer f.connWG.Done()
			c.serve()
		}()
	}
}

// snapshotConns copies the live connection set under f.mu so callers can
// touch the sockets without holding the lock.
func (f *Front) snapshotConns() []*Conn {
	f.mu.Lock()
	defer f.mu.Unlock()
	conns := make([]*Conn, 0, len(f.conns))
	//tf:unordered-ok snapshot; callers' per-conn operations are order-independent
	for c := range f.conns {
		conns = append(conns, c)
	}
	return conns
}

func (f *Front) removeConn(c *Conn) {
	f.mu.Lock()
	delete(f.conns, c)
	f.mu.Unlock()
	f.connCount.Add(-1)
}

// Shutdown stops the front end gracefully: stop accepting, wake every
// connection reader so in-flight requests finish, wait for the teardowns —
// each flushes its outbox and ends its relays — then stop the backend,
// which finishes the requests already accepted and closes what it owns
// (the WAL, the shard clients). If ctx expires first, the remaining
// connections are force-closed (their writers then drain to a dead socket,
// so nothing blocks) and shutdown still completes; ctx's error is reported
// unless the backend's own stop failed.
func (f *Front) Shutdown(ctx context.Context) error {
	f.stopOnce.Do(func() {
		close(f.stopping)
	})
	if f.ln != nil {
		f.ln.Close() //tf:unchecked-ok shutting down
	}
	// Snapshot the live connections and do the socket calls outside f.mu:
	// a deadline or close syscall under the lock would stall every conn
	// teardown (removeConn) behind it (lock-scope).
	for _, c := range f.snapshotConns() {
		c.nc.SetReadDeadline(time.Now()) //tf:unchecked-ok best-effort wake
	}

	connsDone := make(chan struct{})
	//tf:goroutine shutdown-conn-waiter
	go func() {
		f.connWG.Wait()
		close(connsDone)
	}()
	var ctxErr error
	select {
	case <-connsDone:
	case <-ctx.Done():
		ctxErr = ctx.Err()
		for _, c := range f.snapshotConns() {
			c.nc.Close() //tf:unchecked-ok force close
		}
		<-connsDone
	}

	if err := f.be.Stop(); err != nil {
		return err
	}
	return ctxErr
}

// RunUntilSignal is the life of a front-end binary once f is built: bind
// addr, report the bound address through ready (the start-up banner), serve
// until Serve fails or SIGINT/SIGTERM arrives, then shut down,
// force-closing connections still open after drain. prog prefixes what goes
// to standard error.
func RunUntilSignal(prog string, f *Front, addr string, drain time.Duration, ready func(net.Addr)) error {
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		return f.Shutdown(ctx)
	}
	if err := f.Listen(addr); err != nil {
		if shutdownErr := shutdown(); shutdownErr != nil {
			fmt.Fprintf(os.Stderr, "%s: shutdown: %v\n", prog, shutdownErr)
		}
		return err
	}
	ready(f.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	//tf:goroutine serve-accept-loop
	go func() { serveErr <- f.Serve() }()

	select {
	case err := <-serveErr:
		shutdownErr := shutdown()
		if err != nil {
			return err
		}
		return shutdownErr
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "%s: signal received, shutting down\n", prog)
		if err := shutdown(); err != nil {
			return err
		}
		if err := <-serveErr; err != nil {
			return err
		}
		fmt.Println("# shut down cleanly")
		return nil
	}
}
