// Command turboflux-shard runs the TurboFlux cluster coordinator: a
// query-partitioned router in front of N shard servers (plain
// turboflux-serve instances). It speaks the same line protocol as
// turboflux-serve — clients cannot tell the two apart — plus SHARDSTATS
// for per-shard liveness and lag.
//
// Usage:
//
//	turboflux-shard -addr :7688 -shards host1:7687,host2:7687,...
//	               [-numeric-labels] [-dial-timeout 2s] [-request-timeout 5s]
//	               [-heartbeat 500ms] [-heartbeat-misses 3]
//	               [-drain 10s]
//
// Every registered query is placed on the least-loaded shard; every
// update is fanned to all shards in one total order, so each shard holds
// a full graph replica and evaluates only its own queries. Shards must
// start with label dictionaries identical to the coordinator's — pass
// -numeric-labels here exactly when the shards were started with it.
//
// See internal/shard for the architecture.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"turboflux/internal/graph"
	"turboflux/internal/server"
	"turboflux/internal/shard"
)

func main() {
	addr := flag.String("addr", ":7688", "TCP listen address for clients")
	shards := flag.String("shards", "", "comma-separated shard server addresses (required)")
	numeric := flag.Bool("numeric-labels", false, "pre-intern labels 0..255; must match the shards' setting")
	dialTimeout := flag.Duration("dial-timeout", 2*time.Second, "timeout for each shard connect")
	reqTimeout := flag.Duration("request-timeout", 5*time.Second, "timeout for each shard request; a timed-out shard is marked down")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "shard liveness probe interval")
	misses := flag.Int("heartbeat-misses", 3, "consecutive failed probes before a shard is marked down")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout before connections are force-closed")
	flag.Parse()

	if err := run(*addr, *shards, *numeric, *dialTimeout, *reqTimeout, *heartbeat, *misses, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "turboflux-shard:", err)
		os.Exit(1)
	}
}

func run(addr, shards string, numeric bool, dialTimeout, reqTimeout, heartbeat time.Duration, misses int, drain time.Duration) error {
	var addrs []string
	for _, a := range strings.Split(shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("-shards is required (comma-separated shard addresses)")
	}
	opt := shard.Options{
		Shards:            addrs,
		DialTimeout:       dialTimeout,
		RequestTimeout:    reqTimeout,
		HeartbeatInterval: heartbeat,
		HeartbeatMisses:   misses,
	}
	if numeric {
		opt.VertexLabels = graph.NumericDict()
		opt.EdgeLabels = graph.NumericDict()
	}

	co, err := shard.New(opt)
	if err != nil {
		return err
	}
	return server.RunUntilSignal("turboflux-shard", co, addr, drain, func(bound net.Addr) {
		fmt.Printf("# coordinating %d shards: %s\n", len(addrs), strings.Join(addrs, " "))
		fmt.Printf("# serving on %s (heartbeat=%s misses=%d)\n", bound, heartbeat, misses)
	})
}
