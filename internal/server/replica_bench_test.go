package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"turboflux/internal/stats"
)

// BenchmarkFollowerDelivery measures apply-to-event delivery through the
// replication tier: a durable leader and 0, 1 or 2 followers, with 1, 8
// or 32 subscribers to one query spread round-robin over the followers,
// or on the leader when there are none. One op applies replUpdate(k) on
// the leader and waits for its event at the first subscriber; the others
// drain concurrently as fan-out load. Reported: the ops' p50, p95 and p99
// in µs.
func BenchmarkFollowerDelivery(b *testing.B) {
	for _, followers := range []int{0, 1, 2} {
		for _, subs := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("followers=%d/subscribers=%d", followers, subs), func(b *testing.B) {
				benchFollowerDelivery(b, followers, subs)
			})
		}
	}
}

func benchFollowerDelivery(b *testing.B, followers, subs int) {
	_, leader, _ := startReplServer(b, leaderOpts(b.TempDir()))
	if err := dialTest(b, leader).Register("q", replPattern); err != nil {
		b.Fatal(err)
	}
	addrs := []string{leader}
	for range followers {
		_, addr, _ := startReplServer(b, followerOpts(b.TempDir(), leader))
		if err := dialTest(b, addr).Register("q", replPattern); err != nil {
			b.Fatal(err)
		}
		addrs = append(addrs, addr)
	}
	tier := addrs[min(followers, 1):] // the followers, or else the leader

	var drained sync.WaitGroup
	b.Cleanup(drained.Wait) // after the subscribers' own cleanups close them
	var measured *Client
	for i := 0; i < subs; i++ {
		c := dialTest(b, tier[i%len(tier)])
		if _, err := c.Subscribe("q"); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			measured = c
			continue
		}
		drained.Add(1)
		go func() {
			defer drained.Done()
			for range c.Events() {
			}
		}()
	}
	writer := dialTest(b, leader)
	lat := stats.NewLatency(0)
	b.ResetTimer()
	for k := range b.N {
		t0 := time.Now()
		ack, err := writer.Apply(replUpdate(k))
		if err != nil {
			b.Fatal(err)
		}
		ev, ok := Event{}, true
		for ok && ev.Seq != ack.Seq {
			ev, ok = <-measured.Events()
		}
		if !ok {
			b.Fatalf("event stream ended before seq %d", ack.Seq)
		}
		lat.Observe(time.Since(t0))
	}
	b.StopTimer()
	for i, q := range lat.Quantiles(50, 95, 99) {
		b.ReportMetric(float64(q.Nanoseconds())/1e3, []string{"p50_us", "p95_us", "p99_us"}[i])
	}
}
