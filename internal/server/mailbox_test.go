package server

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// within fails the test if f does not return in time: a Mailbox call that
// should fail fast must not block.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked", what)
	}
}

// TestMailboxStress pins the contract the engine-owner actor and the shard
// router share: FIFO handling, a drain of what is queued before shutdown,
// ErrClosed once stopped, and no lost reply when Call races Stop.
func TestMailboxStress(t *testing.T) {
	errOdd := errors.New("odd")
	tests := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"call returns the handler's verdict", func(t *testing.T) {
			var b Mailbox[int, int]
			b.Start(func(x int) (int, error) {
				if x%2 == 1 {
					return -x, errOdd
				}
				return 2 * x, nil
			}, func() {})
			defer b.Stop()
			if got, err := b.Call(4); got != 8 || err != nil {
				t.Fatalf("Call(4) = %d, %v", got, err)
			}
			if got, err := b.Call(3); got != -3 || err != errOdd {
				t.Fatalf("Call(3) = %d, %v", got, err)
			}
		}},
		{"queued requests drain in FIFO order before shutdown", func(t *testing.T) {
			const n = mailboxDepth
			var b Mailbox[int, int]
			gate := make(chan struct{})
			var log []int // handler and shutdown only; read after Stop
			b.Start(func(x int) (int, error) {
				if x == 0 {
					<-gate // hold the loop so the rest queue up
				}
				log = append(log, x)
				return x, nil
			}, func() { log = append(log, -1) })
			for i := 0; i <= n; i++ {
				if err := b.Send(i); err != nil {
					t.Fatalf("Send(%d): %v", i, err)
				}
			}
			stopped := make(chan struct{})
			go func() {
				b.Stop()
				close(stopped)
			}()
			select {
			case <-b.stop: // Stop has asked while the queue is full
			case <-time.After(5 * time.Second):
				t.Fatal("Stop never signalled the loop")
			}
			close(gate)
			<-stopped
			if len(log) != n+2 || log[n+1] != -1 {
				t.Fatalf("log = %v, want 0..%d then shutdown", log, n)
			}
			for i := 0; i <= n; i++ {
				if log[i] != i {
					t.Fatalf("log[%d] = %d: not FIFO (%v)", i, log[i], log)
				}
			}
		}},
		{"send and call after stop fail fast", func(t *testing.T) {
			var b Mailbox[int, int]
			b.Start(func(x int) (int, error) { return x, nil }, func() {})
			b.Stop()
			within(t, "Send/Call after Stop", func() {
				// Repeated: the queue has room, and room must not win over done.
				for i := 0; i < 1000; i++ {
					if err := b.Send(i); err != ErrClosed {
						t.Errorf("Send after Stop = %v, want ErrClosed", err)
						return
					}
					if _, err := b.Call(i); err != ErrClosed {
						t.Errorf("Call after Stop = %v, want ErrClosed", err)
						return
					}
				}
			})
		}},
		{"calls racing stop get their reply or ErrClosed", func(t *testing.T) {
			const callers = 32
			var b Mailbox[int, int]
			seen := make(map[int]bool) // handler only; read after Stop
			b.Start(func(x int) (int, error) {
				seen[x] = true
				return x + 1000, nil
			}, func() {})
			replies := make([]int, callers)
			errs := make([]error, callers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					replies[i], errs[i] = b.Call(i)
				}(i)
			}
			close(start)
			within(t, "Stop racing 32 calls", b.Stop)
			within(t, "calls racing Stop", wg.Wait)
			for i := 0; i < callers; i++ {
				switch {
				case errs[i] == nil && replies[i] == i+1000:
				case errs[i] == ErrClosed && !seen[i]:
				default:
					t.Errorf("caller %d: reply %d, err %v, handled %t", i, replies[i], errs[i], seen[i])
				}
			}
		}},
		{"callers sharing reused reply channels each get their own reply", func(t *testing.T) {
			const callers, calls = 8, 500
			var b Mailbox[int, int]
			b.Start(func(x int) (int, error) { return x + 1000, nil }, func() {})
			defer b.Stop()
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 0; k < calls; k++ {
						x := i*calls + k
						if got, err := b.Call(x); got != x+1000 || err != nil {
							t.Errorf("Call(%d) = %d, %v", x, got, err)
							return
						}
					}
				}(i)
			}
			within(t, "concurrent calls", wg.Wait)
		}},
		{"concurrent stops are safe", func(t *testing.T) {
			var b Mailbox[int, int]
			shutdowns := 0 // loop goroutine only; read after Stop
			b.Start(func(x int) (int, error) { return x, nil }, func() { shutdowns++ })
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					b.Stop()
				}()
			}
			within(t, "two concurrent Stops", wg.Wait)
			if shutdowns != 1 {
				t.Fatalf("shutdown ran %d times", shutdowns)
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, tc.run)
	}
}

// TestMailboxCallAllocsStress: Call reuses its reply channels, so a round
// trip through the mailbox costs no allocation in steady state.
func TestMailboxCallAllocsStress(t *testing.T) {
	var b Mailbox[request, response]
	b.Start(func(request) (response, error) { return response{seq: 1}, nil }, func() {})
	defer b.Stop()
	call := func() {
		if resp, err := b.Call(request{kind: reqApply}); resp.seq != 1 || err != nil {
			t.Fatalf("Call = %+v, %v", resp, err)
		}
	}
	call()
	if avg := testing.AllocsPerRun(1000, call); avg != 0 {
		t.Fatalf("%.2f allocations per Call, want 0", avg)
	}
}
