package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"turboflux"
	"turboflux/internal/server"
	"turboflux/internal/stats"
)

// replicaRow is one cell of the replication fan-out grid: delivery
// latency (update applied on the leader -> matching event received by a
// subscriber) for a given follower count and total subscriber count. Tier
// says where the measured subscriber lives: on the leader (followers=0)
// or on a follower replica.
type replicaRow struct {
	Followers     int     `json:"followers"`
	Subscribers   int     `json:"subscribers"`
	Tier          string  `json:"tier"`
	Samples       int     `json:"samples"`
	DeliveryP50Us float64 `json:"delivery_p50_us"`
	DeliveryP95Us float64 `json:"delivery_p95_us"`
	DeliveryP99Us float64 `json:"delivery_p99_us"`
}

// replicaReport is the BENCH_replica.json document: subscriber count vs
// delivery p99, leader-only vs 1 leader + N followers. The comparable
// leader-only (memory-mode, no WAL) number is BENCH_serve.json's
// fanout_p99_us.
type replicaReport struct {
	SamplesPerCell int          `json:"samples_per_cell"`
	Baseline       string       `json:"baseline"`
	Rows           []replicaRow `json:"rows"`
}

// runReplica benchmarks event delivery through the replication tier:
// leader-only durable serving versus one leader shipping its WAL to 1–2
// follower replicas that carry the subscriber load.
func runReplica(out string, samples int) error {
	followerGrid := []int{0, 1, 2}
	subGrid := []int{1, 8, 32}
	rep := replicaReport{
		SamplesPerCell: samples,
		Baseline:       "BENCH_serve.json fanout_p99_us (memory-mode leader, no replication)",
	}
	for _, nf := range followerGrid {
		for _, ns := range subGrid {
			row, err := replicaCell(nf, ns, samples)
			if err != nil {
				return fmt.Errorf("replica cell followers=%d subs=%d: %w", nf, ns, err)
			}
			rep.Rows = append(rep.Rows, row)
			fmt.Printf("replica: followers=%d subs=%-2d tier=%-8s p50=%.0fus p95=%.0fus p99=%.0fus\n",
				row.Followers, row.Subscribers, row.Tier,
				row.DeliveryP50Us, row.DeliveryP95Us, row.DeliveryP99Us)
		}
	}
	return writeJSON(out, rep)
}

// replicaCell measures one topology: a durable leader, nFollowers
// replicas, nSubs subscribers spread over the replica tier (or on the
// leader when there are no followers), and one writer driving matching
// updates on the leader. Each sample is apply-to-event delivery time at
// the measured subscriber.
func replicaCell(nFollowers, nSubs, samples int) (replicaRow, error) {
	const nVertices = 2000
	row := replicaRow{Followers: nFollowers, Subscribers: nSubs, Tier: "leader"}
	if nFollowers > 0 {
		row.Tier = "follower"
	}

	newDicts := func() (*turboflux.Dict, *turboflux.Dict) {
		vd := turboflux.NewDict()
		vd.Intern("P")
		return vd, turboflux.NewDict()
	}
	var boot []turboflux.Update
	for v := turboflux.VertexID(1); v <= nVertices; v++ {
		boot = append(boot, turboflux.DeclareVertex(v, 0))
	}

	type proc struct {
		srv  *server.Server
		done chan error
		dir  string
	}
	var procs []proc
	start := func(opt server.Options) (string, error) {
		srv, err := server.New(opt)
		if err != nil {
			return "", err
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return "", err
		}
		done := make(chan error, 1)
		//tf:goroutine bench-replica-serve-loop
		go func() { done <- srv.Serve() }()
		procs = append(procs, proc{srv: srv, done: done, dir: opt.DataDir})
		return srv.Addr().String(), nil
	}
	stopAll := func() error {
		var first error
		for i := len(procs) - 1; i >= 0; i-- {
			if err := shutdownServer(procs[i].srv); err != nil && first == nil {
				first = err
			}
			if err := <-procs[i].done; err != nil && first == nil {
				first = err
			}
			os.RemoveAll(procs[i].dir) //tf:unchecked-ok bench temp dir
		}
		return first
	}
	fail := func(err error) (replicaRow, error) {
		stopAll() //tf:unchecked-ok already failing
		return replicaRow{}, err
	}

	leaderDir, err := os.MkdirTemp("", "tfbench-repl-leader")
	if err != nil {
		return replicaRow{}, err
	}
	vd, ed := newDicts()
	leaderAddr, err := start(server.Options{
		Slow:         server.PolicyBlock,
		QueueDepth:   1024,
		DataDir:      leaderDir,
		Fsync:        "none",
		VertexLabels: vd,
		EdgeLabels:   ed,
		Bootstrap:    boot,
	})
	if err != nil {
		os.RemoveAll(leaderDir) //tf:unchecked-ok already failing
		return replicaRow{}, err
	}

	admin, err := server.Dial(leaderAddr)
	if err != nil {
		return fail(err)
	}
	defer admin.Close() //tf:unchecked-ok bench teardown
	if err := admin.Register("q0", "(a:P)-[:e0]->(b:P)"); err != nil {
		return fail(err)
	}

	// Follower tier: register the same query on every replica before any
	// sampled update, so each replicated frame emits its events there.
	subTier := []string{leaderAddr}
	if nFollowers > 0 {
		subTier = subTier[:0]
		for i := 0; i < nFollowers; i++ {
			dir, err := os.MkdirTemp("", "tfbench-repl-follower")
			if err != nil {
				return fail(err)
			}
			fvd, fed := newDicts()
			addr, err := start(server.Options{
				Slow:         server.PolicyBlock,
				QueueDepth:   1024,
				DataDir:      dir,
				Fsync:        "none",
				VertexLabels: fvd,
				EdgeLabels:   fed,
				Follow:       leaderAddr,
			})
			if err != nil {
				os.RemoveAll(dir) //tf:unchecked-ok already failing
				return fail(err)
			}
			fc, err := server.Dial(addr)
			if err != nil {
				return fail(err)
			}
			regErr := fc.Register("q0", "(a:P)-[:e0]->(b:P)")
			fc.Close() //tf:unchecked-ok bench teardown
			if regErr != nil {
				return fail(regErr)
			}
			subTier = append(subTier, addr)
		}
	}

	// Subscribers, round-robin over the tier. The first one is measured;
	// the rest drain concurrently, modeling fan-out load.
	subs := make([]*server.Client, nSubs)
	var drainWG sync.WaitGroup
	for i := range subs {
		c, err := server.Dial(subTier[i%len(subTier)])
		if err != nil {
			return fail(err)
		}
		subs[i] = c
		if _, err := c.Subscribe("q0"); err != nil {
			return fail(err)
		}
		if i == 0 {
			continue // measured subscriber: drained inline below
		}
		drainWG.Add(1)
		//tf:goroutine bench-replica-drain
		go func(c *server.Client) {
			defer drainWG.Done()
			for range c.Events() {
			}
		}(c)
	}
	measured := subs[0]

	writer, err := server.Dial(leaderAddr)
	if err != nil {
		return fail(err)
	}
	defer writer.Close() //tf:unchecked-ok bench teardown

	waitSeq := func(seq uint64) error {
		for ev := range measured.Events() {
			if ev.Seq == seq {
				return nil
			}
		}
		return fmt.Errorf("measured subscriber stream ended before seq %d", seq)
	}
	lat := stats.NewLatency(0)
	for k := 0; k < samples; k++ {
		from := turboflux.VertexID(uint32(k)%nVertices + 1)
		to := turboflux.VertexID(uint32(k*7919)%nVertices + 1)
		t0 := time.Now()
		ack, err := writer.Apply(turboflux.Insert(from, 0, to))
		if err != nil {
			return fail(err)
		}
		if err := waitSeq(ack.Seq); err != nil {
			return fail(err)
		}
		lat.Observe(time.Since(t0))
		dack, err := writer.Delete(from, 0, to)
		if err != nil {
			return fail(err)
		}
		if err := waitSeq(dack.Seq); err != nil {
			return fail(err)
		}
	}

	for _, c := range subs {
		c.Close() //tf:unchecked-ok bench teardown
	}
	drainWG.Wait()
	if err := stopAll(); err != nil {
		return replicaRow{}, err
	}

	qs := lat.Quantiles(50, 95, 99)
	row.Samples = int(lat.Count())
	row.DeliveryP50Us = float64(qs[0].Nanoseconds()) / 1e3
	row.DeliveryP95Us = float64(qs[1].Nanoseconds()) / 1e3
	row.DeliveryP99Us = float64(qs[2].Nanoseconds()) / 1e3
	return row, nil
}

func shutdownServer(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}
