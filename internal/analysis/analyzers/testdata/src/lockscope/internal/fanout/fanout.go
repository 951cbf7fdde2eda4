// Package fanout is the lock-scope fixture's worker-pool stand-in.
package fanout

// Pool runs one loop.
type Pool struct{ loop func() }

// Run runs the loop on the caller.
func (p *Pool) Run(k int) { p.loop() }
