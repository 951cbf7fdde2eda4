// Package relay is the lock-scope fixture: critical sections must not
// call into eval, I/O or pool dispatch. Findings: a socket write under
// the lock, an eval-path call under a deferred read lock, and a pool
// dispatch under the lock. Copy-then-write-after-unlock and a suppressed
// control operation are fine.
package relay

import (
	"net"
	"sync"
	"time"

	"turboflux/internal/fanout"
)

// Relay guards a socket and a counter with separate locks.
type Relay struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	conn net.Conn
	n    int
}

// Eval is an eval root for the fixture.
//
//tf:eval-path
func (r *Relay) Eval() int {
	return r.n
}

// Broadcast writes to the socket while holding the lock.
func (r *Relay) Broadcast(b []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.conn.Write(b)
	return err
}

// Count evaluates under a read lock that is held to function end.
func (r *Relay) Count() int {
	r.rw.RLock()
	defer r.rw.RUnlock()
	return r.Eval()
}

// Flush dispatches to the worker pool while locked.
func (r *Relay) Flush(p *fanout.Pool, k int) {
	r.mu.Lock()
	p.Run(k)
	r.mu.Unlock()
}

// Send copies under the lock and does the I/O after releasing it.
func (r *Relay) Send(b []byte) error {
	r.mu.Lock()
	buf := make([]byte, len(b))
	copy(buf, b)
	r.n += len(b)
	r.mu.Unlock()
	_, err := r.conn.Write(buf)
	return err
}

// Probe pokes the read deadline inside the lock, deliberately.
func (r *Relay) Probe(t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = r.conn.SetReadDeadline(t) //tf:lock-ok fixture: nonblocking control op
}
