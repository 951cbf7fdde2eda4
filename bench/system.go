package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"turboflux/bench/internal/sut"
	"turboflux/bench/internal/wire"
	"turboflux/internal/stream"
)

const (
	dialTimeout = 5 * time.Second
	readyWait   = 60 * time.Second
	stopGrace   = 15 * time.Second
)

// bins locates the binaries under test.
type bins struct{ serve, shard string }

// system is one running topology plus the benchmark's two connections to
// it: one writer, one subscriber subscribed to every query.
type system struct {
	servers []*sut.Proc // turboflux-serve processes (the shards, or the one server)
	coord   *sut.Proc   // turboflux-shard, nil for a single server
	dataDir []string    // servers' -data-dir, parallel to servers
	front   string      // address clients talk to

	writer *wire.Conn
	sub    *wire.Conn

	// subSeq is the sequence number the subscriptions were acknowledged
	// at: update k (0-based) of the run produces events with seq
	// subSeq+1+k. On a coordinator this is the shards' numbering, which
	// differs from the numbering of its own acks.
	subSeq uint64
}

// serveArgs is the configuration a user gets: durable, interval fsync,
// lossless back-pressure. Only -queue departs from the default, to the
// value the issue fixed for every workload.
func serveArgs(dataDir, g0 string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-fsync", "interval",
		"-slow", "block",
		"-queue", "1024",
		"-graph", g0,
		"-numeric-labels",
	}
}

// startSystem spawns the topology and returns once its front answers PING:
// the initial graph is loaded and journaled by then.
func startSystem(b bins, dir string, shards int, g0 string) (*system, error) {
	s := &system{}
	n := shards
	if n == 0 {
		n = 1
	}
	// Servers load the initial graph in parallel; each banner is awaited in
	// turn, so the total wait is the slowest load.
	type started struct {
		p   *sut.Proc
		err error
	}
	results := make([]chan started, n)
	for i := 0; i < n; i++ {
		dd := filepath.Join(dir, fmt.Sprintf("data%d", i))
		s.dataDir = append(s.dataDir, dd)
		results[i] = make(chan started, 1)
		name := fmt.Sprintf("serve%d", i)
		//tf:goroutine bench-start-server
		go func(ch chan started) {
			p, err := sut.Start(name, b.serve, serveArgs(dd, g0), filepath.Join(dir, name+".log"), readyWait)
			ch <- started{p, err}
		}(results[i])
	}
	var firstErr error
	for _, ch := range results {
		r := <-ch
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		if r.p != nil {
			s.servers = append(s.servers, r.p)
		}
	}
	if firstErr != nil {
		s.stop() //tf:unchecked-ok already failing
		return nil, firstErr
	}
	s.front = s.servers[0].Addr
	if shards > 0 {
		addrs := make([]string, n)
		for i, p := range s.servers {
			addrs[i] = p.Addr
		}
		co, err := sut.Start("shard", b.shard, []string{
			"-addr", "127.0.0.1:0",
			"-shards", strings.Join(addrs, ","),
			"-numeric-labels",
		}, filepath.Join(dir, "shard.log"), readyWait)
		if err != nil {
			s.stop() //tf:unchecked-ok already failing
			return nil, err
		}
		s.coord = co
		s.front = co.Addr
	}
	var err error
	if s.writer, err = wire.Dial(s.front, dialTimeout); err == nil {
		_, err = s.writer.Do("PING")
	}
	if err != nil {
		s.stop() //tf:unchecked-ok already failing
		return nil, err
	}
	return s, nil
}

// registerAll registers and subscribes every query; with startSystem it
// is the set-up a user waits for before the first update can be sent.
func (s *system) registerAll(names, patterns []string) error {
	for i, name := range names {
		if _, err := s.writer.Do("REGISTER " + name + " " + patterns[i]); err != nil {
			return err
		}
	}
	var err error
	if s.sub, err = wire.Dial(s.front, dialTimeout); err != nil {
		return err
	}
	for i, name := range names {
		reply, err := s.sub.Do("SUBSCRIBE " + name)
		if err != nil {
			return err
		}
		seq, err := wire.ParseSubscribed(reply)
		if err != nil {
			return err
		}
		if i > 0 && seq != s.subSeq {
			return fmt.Errorf("bench: subscriptions acknowledged at different sequence numbers (%d, %d)", s.subSeq, seq)
		}
		s.subSeq = seq
	}
	return nil
}

// procs returns every system-under-test process.
func (s *system) procs() []*sut.Proc {
	if s.coord != nil {
		return append([]*sut.Proc{s.coord}, s.servers...)
	}
	return s.servers
}

// procUsage is one system-under-test process's resource use so far.
type procUsage struct {
	coord bool
	sut.Usage
}

// usage reads every process's CPU time and peak RSS from /proc.
func (s *system) usage() ([]procUsage, error) {
	var out []procUsage
	for _, p := range s.procs() {
		u, err := sut.ReadUsage(p.Pid())
		if err != nil {
			return nil, fmt.Errorf("bench: reading /proc for %s: %w", p.Name, err)
		}
		out = append(out, procUsage{coord: p == s.coord, Usage: u})
	}
	return out, nil
}

// total sums CPU time and peak RSS over processes.
func total(ps []procUsage) sut.Usage {
	var t sut.Usage
	for _, p := range ps {
		t.CPU += p.CPU
		t.PeakMB += p.PeakMB
	}
	return t
}

// stop closes the connections and shuts every process down, coordinator
// first so it never sees a shard vanish. It waits until all have ended
// and returns the first failure.
func (s *system) stop() error {
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.writer != nil {
		s.writer.Close() //tf:unchecked-ok the processes are being stopped anyway
		s.writer = nil
	}
	if s.sub != nil {
		s.sub.Close() //tf:unchecked-ok the processes are being stopped anyway
		s.sub = nil
	}
	if s.coord != nil {
		note(s.coord.Stop(stopGrace))
		s.coord = nil
	}
	for _, p := range s.servers {
		note(p.Stop(stopGrace))
	}
	s.servers = nil
	return first
}

// writeG0 writes the initial graph in the stream text format.
func writeG0(path string, ups []stream.Update) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := stream.Encode(f, ups); err != nil {
		f.Close() //tf:unchecked-ok already failing; the encode error wins
		return err
	}
	return f.Close()
}
