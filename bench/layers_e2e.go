package main

import (
	"path/filepath"
	"time"

	"turboflux/bench/internal/measure"
	"turboflux/bench/internal/sut"
	"turboflux/bench/internal/wire"
)

// wireLayerMetrics are the per-layer numbers the traced end-to-end run
// yields from outside: STATS/SHARDSTATS counters, /proc, and the load
// generator's own clock. A metric that does not apply to the topology
// (shard.* on a single server) is reported as 0.
func wireLayerMetrics(o *observed, w workload, ack, delivery []float64, st sysStats, procs []procUsage, sc *scraper, restartS float64) []metric {
	var serverCPU, serverRSS, coordCPU, coordRSS float64
	servers := 0
	for _, p := range procs {
		if p.coord {
			coordCPU, coordRSS = p.CPU.Seconds(), p.PeakMB
		} else {
			serverCPU += p.CPU.Seconds()
			serverRSS += p.PeakMB
			servers++
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var skew float64
	if len(st.shardQueries) > 0 {
		var sum, most float64
		for _, q := range st.shardQueries {
			sum += q
			most = max(most, q)
		}
		skew = ratio(most, sum/float64(len(st.shardQueries)))
	}

	var late []float64
	for i := o.warmupN; i < o.pacedN; i++ {
		late = append(late, float64(o.sentAt[i]-o.pacer.Due(i).Sub(o.epoch))/1e6)
	}
	ack, delivery, late = measure.Sorted(ack), measure.Sorted(delivery), measure.Sorted(late)
	tail := func(xs []float64) float64 {
		p, ok := measure.HighestPercentile(len(xs))
		if !ok {
			return 0
		}
		return measure.Quantile(xs, min(p, 99))
	}
	runWall := o.ackAt[o.pacedN-1] - o.pacer.Start.Sub(o.epoch) + o.satWall

	m := func(name, unit string, v float64) metric { return metric{Name: name, Unit: unit, Value: v} }
	return []metric{
		m("server.single_path_per_s", "1/s", o.singleRate),
		m("server.apply_p50_us", "us", st.applyP50us),
		m("server.apply_p99_us", "us", st.applyP99us),
		m("server.events", "count", st.events),
		m("server.dropped", "count", st.dropped),
		m("server.evicted", "count", st.evicted),
		m("server.sub_max_depth", "count", st.subMaxDepth),
		m("server.cpu_s", "s", serverCPU),
		m("server.rss_peak_mb", "MB", serverRSS),
		m("server.restart_s", "s", restartS),
		m("shard.coord_cpu_s", "s", coordCPU),
		m("shard.coord_rss_peak_mb", "MB", coordRSS),
		m("shard.lag_max", "count", sc.lagMax),
		m("shard.ping_us_p50", "us", measure.Median(st.shardPingUs)),
		m("shard.placement_skew", "ratio", skew),
		m("client.late_ms_p99", "ms", tail(late)),
		m("client.paced_load_share", "ratio", ratio(w.PacedRate, o.singleRate)),
		m("client.ack_ms_max", "ms", ack[len(ack)-1]),
		m("client.delivery_ms_p99", "ms", tail(delivery)),
		m("client.cpu_s", "s", o.clientCPU.Seconds()),
		m("client.events_per_s", "1/s", float64(o.ev.seen.Load())/runWall.Seconds()),
		m("fanout.evals", "count", st.evals),
		m("fanout.skipped", "count", st.skipped),
		m("fanout.skip_share", "ratio", ratio(st.skipped, st.evals+st.skipped)),
		m("fanout.pooled", "count", st.pooled),
		m("fanout.busy_ns_per_update", "ns", ratio(st.busyNs, float64(o.sent*servers))),
		m("mqo.subpatterns", "count", st.subpats),
		m("mqo.shared", "count", st.shared),
		m("mqo.refs", "count", st.refs),
		m("mqo.maintain_runs", "count", st.maintainRuns),
		m("mqo.saved_evals", "count", st.savedEvals),
		m("mqo.shared_replays", "count", st.replay),
		m("mqo.dedup_ratio", "ratio", ratio(st.savedEvals, st.maintainRuns)),
		m("trace.overhead_share", "ratio", 1-ratio(measure.Median(o.blockRates[1]), measure.Median(o.blockRates[0]))),
		m("trace.scrapes", "count", float64(sc.samples)),
	}
}

// restartSeconds restarts one stopped server on its data directory and
// times spawn to PING: recovery from the WAL the run just wrote.
func restartSeconds(b bins, dir, dataDir, g0 string) (float64, error) {
	t0 := time.Now()
	p, err := sut.Start("restart", b.serve, serveArgs(dataDir, g0), filepath.Join(dir, "restart.log"), readyWait)
	if err != nil {
		return 0, err
	}
	c, err := wire.Dial(p.Addr, dialTimeout)
	if err == nil {
		_, err = c.Do("PING")
		c.Close() //tf:unchecked-ok one exchange
	}
	took := time.Since(t0).Seconds()
	if serr := p.Stop(stopGrace); err == nil {
		err = serr
	}
	return took, err
}
