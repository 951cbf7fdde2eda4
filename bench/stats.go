package main

import (
	"sync/atomic"
	"time"

	"turboflux/bench/internal/wire"
)

// sysStats is what STATS (every server) and SHARDSTATS (the coordinator)
// report, summed or maxed over processes as each counter's meaning asks.
type sysStats struct {
	queryMatches map[string]int64 // pos+neg per query
	serverLines  int              // "server" lines seen: one per server
	// missing holds every "kind key" a payload line was asked for and did
	// not carry as a number. The checks read their counters from here, so a
	// renamed or removed STATS key fails the run; it never reads as zero.
	missing map[string]bool

	events, dropped, evicted         float64
	applyP50us, applyP99us           float64 // slowest server's
	evals, skipped, pooled, busyNs   float64
	subpats, shared, refs            float64
	maintainRuns, savedEvals, replay float64
	subMaxDepth                      float64

	shardLag     float64   // max over shards
	shardPingUs  []float64 // one per shard
	shardQueries []float64 // one per shard
}

// collectStats asks every server for STATS, and the coordinator (when
// there is one) for SHARDSTATS, on fresh connections.
func collectStats(s *system) (sysStats, error) {
	st := sysStats{queryMatches: map[string]int64{}, missing: map[string]bool{}}
	for _, p := range s.servers {
		lines, err := fetch(p.Addr, "STATS")
		if err != nil {
			return st, err
		}
		st.addServer(lines)
	}
	if s.coord != nil {
		lines, err := fetch(s.coord.Addr, "SHARDSTATS")
		if err != nil {
			return st, err
		}
		st.addShards(lines)
	}
	return st, nil
}

func fetch(addr, verb string) ([]wire.Line, error) {
	c, err := wire.Dial(addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	defer c.Close() //tf:unchecked-ok read-only exchange
	if err := c.SetReadDeadline(time.Now().Add(hardLimit)); err != nil {
		return nil, err
	}
	lines, err := c.Data(verb)
	if err != nil {
		return nil, err
	}
	return wire.ParseLines(lines), nil
}

// num reads one counter of a payload line, noting it in missing when the
// line does not carry it.
func (st *sysStats) num(l wire.Line, key string) float64 {
	v, ok := l.Num(key)
	if !ok {
		st.missing[l.Kind+" "+key] = true
	}
	return v
}

func (st *sysStats) addServer(lines []wire.Line) {
	for _, l := range lines {
		switch l.Kind {
		case "server":
			st.serverLines++
			st.events += st.num(l, "events")
			st.dropped += st.num(l, "dropped")
			st.evicted += st.num(l, "evicted")
		case "apply_latency":
			st.applyP50us = max(st.applyP50us, st.num(l, "p50_ns")/1e3)
			st.applyP99us = max(st.applyP99us, st.num(l, "p99_ns")/1e3)
		case "fanout":
			st.evals += st.num(l, "evals")
			st.skipped += st.num(l, "skipped")
			st.pooled += st.num(l, "pooled")
			st.busyNs += st.num(l, "busy_ns")
		case "mqo":
			st.subpats += st.num(l, "subpats")
			st.shared += st.num(l, "shared")
			st.refs += st.num(l, "refs")
			st.maintainRuns += st.num(l, "maintain")
			st.savedEvals += st.num(l, "saved")
			st.replay += st.num(l, "replays")
		case "query":
			st.queryMatches[l.Name] += int64(st.num(l, "pos") + st.num(l, "neg"))
		case "sub":
			st.subMaxDepth = max(st.subMaxDepth, st.num(l, "max_depth"))
		}
	}
}

func (st *sysStats) addShards(lines []wire.Line) {
	for _, l := range lines {
		if l.Kind != "shard" {
			continue
		}
		st.shardLag = max(st.shardLag, st.num(l, "lag"))
		st.shardPingUs = append(st.shardPingUs, st.num(l, "ping_us"))
		st.shardQueries = append(st.shardQueries, st.num(l, "queries"))
	}
}

// scraper polls STATS/SHARDSTATS and /proc while switched on, the way an
// operator's dashboard would; it is the "traced" side of the end-to-end
// run. It keeps only the maxima that a final scrape cannot recover.
type scraper struct {
	on      atomic.Bool
	sys     *system
	quit    chan struct{}
	ended   chan struct{}
	samples int
	lagMax  float64
	err     error
}

func startScraper(s *system) *scraper {
	sc := &scraper{sys: s, quit: make(chan struct{}), ended: make(chan struct{})}
	//tf:goroutine bench-scraper
	go sc.loop()
	return sc
}

func (sc *scraper) loop() {
	defer close(sc.ended)
	tick := time.NewTicker(scrapeEvery)
	defer tick.Stop()
	for {
		select {
		case <-sc.quit:
			return
		case <-tick.C:
			if !sc.on.Load() {
				continue
			}
			st, err := collectStats(sc.sys)
			if err != nil {
				sc.err = err
				return
			}
			if _, err := sc.sys.usage(); err != nil {
				sc.err = err
				return
			}
			sc.samples++
			sc.lagMax = max(sc.lagMax, st.shardLag)
		}
	}
}

// stop ends the polling goroutine and waits for it.
func (sc *scraper) stop() error {
	close(sc.quit)
	<-sc.ended
	return sc.err
}
