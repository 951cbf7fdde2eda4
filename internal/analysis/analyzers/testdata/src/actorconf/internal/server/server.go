// Package server is the actor-confinement fixture: an actor whose mailbox
// runs its annotated handler and shutdown (clean), a bypass from a
// non-actor function (finding), a suppressed deliberate access, a direct
// call to the handler from a connection method (finding), and a router
// whose mailbox runs a handler lacking //tf:actor-loop (finding).
package server

import "turboflux"

// Mailbox stands in for the real server.Mailbox: Start hands handle and
// shutdown to the one goroutine that runs them.
type Mailbox[Req, Resp any] struct {
	handle   func(Req) (Resp, error)
	shutdown func()
}

// Start launches the loop (elided in the fixture).
func (b *Mailbox[Req, Resp]) Start(handle func(Req) (Resp, error), shutdown func()) {
	b.handle, b.shutdown = handle, shutdown
}

// host is the engine surface the actor drives.
//
//tf:actor-owned
type host interface {
	Apply(x int) int
}

type actor struct {
	box Mailbox[int, int]
	m   *turboflux.MultiEngine
	h   host
	n   int
}

// start gives the mailbox the actor's two roots.
func (a *actor) start() {
	a.box.Start(a.handle, a.shutdown)
}

// handle runs on the mailbox goroutine: owned-type calls here are fine.
//
//tf:actor-loop
func (a *actor) handle(x int) (int, error) {
	a.n = a.m.Apply(x)
	a.n = a.h.Apply(x)
	return a.n, nil
}

// shutdown runs on the mailbox goroutine once the queue is drained.
//
//tf:actor-loop
func (a *actor) shutdown() {
	a.n = a.m.Apply(-a.n)
}

// stats is called from connection goroutines; reading the engine here
// races the actor.
func (a *actor) stats() int {
	return a.m.Apply(0)
}

// Apply is a connection method that runs the handler itself instead of
// sending the mailbox a request: it races the actor.
func (a *actor) Apply(x int) (int, error) {
	return a.handle(x)
}

// pump is a subscriber-side helper; the interface call still reaches the
// owned engine.
func pump(h host) int {
	return h.Apply(1)
}

// snapshot is a deliberate pre-start access, suppressed.
func snapshot(m *turboflux.MultiEngine) int {
	return m.Apply(0) //tf:actor-ok fixture: construction precedes actor start
}

// router's mailbox runs a handler that is not a root, so its engine call
// is unproven too.
type router struct {
	box Mailbox[int, int]
	m   *turboflux.MultiEngine
}

func (r *router) start() {
	r.box.Start(r.handle, r.shutdown)
}

func (r *router) handle(x int) (int, error) {
	return r.m.Apply(x), nil
}

//tf:actor-loop
func (r *router) shutdown() {}
