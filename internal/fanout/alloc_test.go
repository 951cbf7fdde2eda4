//go:build !race

package fanout

import "testing"

// TestPoolRunAllocs: a parallel Run allocates nothing once the workers
// have started.
func TestPoolRunAllocs(t *testing.T) {
	p := New(2, func() {})
	defer p.Close()
	p.Run(2) // start the workers
	if avg := testing.AllocsPerRun(100, func() { p.Run(2) }); avg != 0 {
		t.Fatalf("Run(2) allocates %.2f times, want 0", avg)
	}
}
