// Command turboflux-serve runs the TurboFlux network server: a concurrent
// TCP front end over one shared MultiEngine. Clients register continuous
// queries, stream graph updates and subscribe to per-query match streams
// over a line protocol (see internal/server for the full specification).
//
// Usage:
//
//	turboflux-serve -addr :7687 [-data-dir state/] [-fsync interval]
//	               [-queue 256] [-slow block|drop|evict]
//	               [-graph g0.txt] [-numeric-labels]
//	               [-follow leader:7687] [-cpuprofile cpu.pprof]
//
// With -data-dir every accepted update is journaled to a checksummed
// write-ahead log before it is evaluated or acknowledged, and a restarted
// server recovers the graph from disk (queries are not journaled; clients
// re-register after a restart). SIGINT/SIGTERM trigger a graceful
// shutdown: the listener closes, in-flight requests finish, subscriber
// queues flush, and the store closes with no torn tail.
//
// With -follow the server starts as a read-only follower replicating the
// leader's write-ahead log (requires -data-dir): it catches up from a
// snapshot and/or log tail, journals every replicated update into its own
// WAL, serves queries and subscriptions locally, and rejects writes until
// a client sends PROMOTE.
//
// Once the initial graph is loaded (the -graph bootstrap or the durable
// recovery) the server collects at GOGC 25 rather than the runtime's
// default of 100: its heap is a few large pointer-free arrays, so a tight
// target costs little CPU and keeps the resident set near the live heap.
// A GOGC set in the environment overrides it.
//
// With -cpuprofile the server writes a CPU profile of its whole run, from
// start-up to shutdown, and also when it fails to start.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"turboflux/internal/graph"
	"turboflux/internal/server"
	"turboflux/internal/stream"
)

// gcPercent is the collector's target once the graph is loaded: the
// heap may grow a quarter past the live heap before the next collection
// (DESIGN §16, "GC headroom").
const gcPercent = 25

func main() {
	addr := flag.String("addr", ":7687", "TCP listen address")
	dataDir := flag.String("data-dir", "", "durable mode: journal updates and recover state from this directory")
	fsync := flag.String("fsync", "interval", "durable-mode fsync policy: always, interval or none")
	queue := flag.Int("queue", 256, "per-subscriber event queue capacity")
	slow := flag.String("slow", "block", "slow-consumer policy: block, drop or evict")
	graphPath := flag.String("graph", "", "optional initial graph file (text stream format; seeds a fresh store)")
	numeric := flag.Bool("numeric-labels", false, "pre-intern labels 0..255 so numeric label names map to themselves")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout before connections are force-closed")
	workers := flag.Int("fanout-workers", 0, "multi-query fan-out worker pool size (0 = GOMAXPROCS, 1 = evaluate inline)")
	follow := flag.String("follow", "", "follower mode: replicate from the leader at this address (requires -data-dir)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	flag.Parse()

	if err := run(*cpuProfile, *addr, *dataDir, *fsync, *graphPath, *slow, *follow, *queue, *workers, *numeric, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "turboflux-serve:", err)
		os.Exit(1)
	}
}

func run(cpuProfile, addr, dataDir, fsync, graphPath, slow, follow string, queue, workers int, numeric bool, drain time.Duration) (err error) {
	if cpuProfile != "" {
		f, ferr := os.Create(cpuProfile)
		if ferr != nil {
			return ferr
		}
		if ferr = pprof.StartCPUProfile(f); ferr != nil {
			f.Close() //tf:unchecked-ok the start error is the one reported
			return ferr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	policy, err := server.ParseSlowPolicy(slow)
	if err != nil {
		return err
	}
	opt := server.Options{
		QueueDepth:    queue,
		Slow:          policy,
		DataDir:       dataDir,
		Fsync:         fsync,
		FanOutWorkers: workers,
		Follow:        follow,
	}
	if numeric {
		opt.VertexLabels = graph.NumericDict()
		opt.EdgeLabels = graph.NumericDict()
	}
	var g0 *os.File
	if graphPath != "" {
		// The store reads it a window at a time, and only when it is fresh.
		if g0, err = os.Open(graphPath); err != nil {
			return fmt.Errorf("loading graph: %w", err)
		}
		opt.BootstrapFrom = g0
	}

	srv, rec, err := server.New(opt)
	if g0 != nil {
		g0.Close() //tf:unchecked-ok read-only file
	}
	var lineErr *stream.LineError
	if errors.As(err, &lineErr) {
		return fmt.Errorf("loading graph: %w", err)
	}
	if err != nil {
		return err
	}
	if _, set := os.LookupEnv("GOGC"); !set {
		debug.SetGCPercent(gcPercent)
	}
	if dataDir != "" {
		if rec.Fresh {
			fmt.Printf("# durable: fresh store in %s (fsync=%s)\n", dataDir, fsync)
		} else {
			fmt.Printf("# durable: recovered snapshot@%d + %d replayed updates (%d torn bytes dropped)\n",
				rec.SnapshotLSN, rec.Replayed, rec.TruncatedBytes)
		}
	}
	return server.RunUntilSignal("turboflux-serve", srv, addr, drain, func(bound net.Addr) {
		if follow != "" {
			fmt.Printf("# following leader at %s\n", follow)
		}
		fmt.Printf("# serving on %s (policy=%s queue=%d)\n", bound, policy, queue)
	})
}
