package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"syscall"
	"time"

	"turboflux/bench/internal/measure"
	"turboflux/bench/internal/wire"
	"turboflux/internal/stream"
)

const (
	frameSize = 256 // updates per BATCHB frame in the saturate phase
	// window is how many frames the saturate loop keeps outstanding. With
	// one, the server idles for a socket round trip between frames, and at
	// 100 k updates/s that wake-up latency — the part of the run most
	// exposed to a noisy host — is a tenth of the frame time; with two the
	// next frame is always waiting and the rate is the server's own.
	window      = 2
	drainLimit  = 2 * time.Second // backlog still undelivered this long after the last send counts as failed
	hardLimit   = 60 * time.Second
	oracleN     = 2000 // leading updates cross-checked against Graphflow
	scrapeEvery = 500 * time.Millisecond
	traceBlock  = 2 * time.Second // saturate alternates scraped / unscraped blocks of this length when tracing
	pacedShare  = 0.4             // share of --seconds spent in the paced phase
	pacerLeadIn = 20 * time.Millisecond
	rateWindow  = 500 * time.Millisecond // saturate-phase rates are also kept per window of this length
	warmup      = time.Second            // leading part of the paced phase that is sent and checked but not timed
	// A traced run spends singleBudget of its saturate time measuring what
	// the single-update path sustains: singleChunk lines per write, window
	// writes outstanding.
	singleBudget = time.Second
	singleChunk  = 64
	minPacedSamp = 200 // p95 needs 10 samples beyond it
)

// observed is everything one end-to-end run saw from outside.
type observed struct {
	epoch time.Time

	// Paced phase, indexed by update.
	pacer      measure.Pacer
	pacedN     int // paced updates, the first warmupN of them untimed
	warmupN    int
	sentAt     []time.Duration // since epoch, when the generator handed the update to the socket
	ackAt      []time.Duration // since epoch
	pacedLate  int             // updates not acknowledged within drainLimit of the last send
	pacedEvLag bool            // events not all delivered within drainLimit of the last ack

	// Acknowledgments, indexed by update over the whole run. For a
	// batch frame the total sits on the frame's first update.
	ackTotal []int64
	refused  int    // updates answered -ERR
	seqGaps  int    // acknowledgments out of sequence
	nextSeq  uint64 // sequence number the next acknowledgment must carry
	sent     int    // updates sent (paced + saturate)

	// Single-path capacity, traced runs only: updates/s over singleBudget.
	singleRate float64

	// Saturate phase.
	satUpdates int
	satWall    time.Duration
	satCPU     time.Duration // system-under-test processes, user+sys
	clientCPU  time.Duration // this process, whole run
	markPeakMB float64       // summed VmHWM when the workload's MemoryMark-th update was acknowledged; 0 if never
	frameEnds  []int         // update index one past each acknowledged frame
	satWindows []float64     // updates/s of each full rateWindow of the phase, in order
	blockRates [2][]float64  // tracing only: updates/s of unscraped [0] and scraped [1] blocks

	ev *eventLog
}

// eventLog is filled by the subscriber connection's reader goroutine and
// read by the main goroutine only after it has observed seen reach the
// count it waits for (the atomic orders the plain writes before it).
type eventLog struct {
	subSeq   uint64
	nQueries int

	seen     atomic.Int64
	count    []int32         // events per update
	lastAt   []time.Duration // arrival of the latest event of a paced update, since epoch
	perQuery []int64
	oracle   [][]int32 // [update][query] event counts for the first oracleN updates

	disorder  int  // events whose seq went backwards within a subscription
	stray     int  // events for an unknown query or update
	evicted   bool // an *EVICTED notice arrived
	lastSeq   []uint64
	readErr   error
	readEnded chan struct{}
}

func newEventLog(subSeq uint64, nQueries, nUpdates, pacedN int) *eventLog {
	ev := &eventLog{
		subSeq:    subSeq,
		nQueries:  nQueries,
		count:     make([]int32, nUpdates),
		lastAt:    make([]time.Duration, pacedN),
		perQuery:  make([]int64, nQueries),
		lastSeq:   make([]uint64, nQueries),
		readEnded: make(chan struct{}),
	}
	n := oracleN
	if n > nUpdates {
		n = nUpdates
	}
	ev.oracle = make([][]int32, n)
	for i := range ev.oracle {
		ev.oracle[i] = make([]int32, nQueries)
	}
	return ev
}

// queryIndex decodes the benchmark's own query names, "q00".."q99".
func queryIndex(name []byte, n int) int {
	if len(name) != 3 || name[0] != 'q' || name[1] < '0' || name[1] > '9' || name[2] < '0' || name[2] > '9' {
		return -1
	}
	i := int(name[1]-'0')*10 + int(name[2]-'0')
	if i >= n {
		return -1
	}
	return i
}

// read consumes the subscriber connection until it is closed.
func (ev *eventLog) read(c *wire.Conn, epoch time.Time) {
	defer close(ev.readEnded)
	for {
		line, err := c.ReadLine()
		if err != nil {
			ev.readErr = err
			return
		}
		now := time.Since(epoch)
		e, ok := wire.ParseEvent(line)
		if !ok {
			if len(line) > 0 && line[0] == '*' {
				ev.evicted = true
			}
			continue
		}
		qi := queryIndex(e.Query, ev.nQueries)
		idx := int64(e.Seq) - int64(ev.subSeq) - 1
		if qi < 0 || idx < 0 || idx >= int64(len(ev.count)) {
			ev.stray++
			ev.seen.Add(1)
			continue
		}
		if e.Seq < ev.lastSeq[qi] {
			ev.disorder++
		}
		ev.lastSeq[qi] = e.Seq
		ev.count[idx]++
		ev.perQuery[qi]++
		if idx < int64(len(ev.lastAt)) {
			ev.lastAt[idx] = now
		}
		if idx < int64(len(ev.oracle)) {
			ev.oracle[idx][qi]++
		}
		ev.seen.Add(1)
	}
}

// waitSeen waits until want events have arrived; it reports false when
// limit passes first.
func (ev *eventLog) waitSeen(want int64, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for ev.seen.Load() < want {
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-ev.readEnded:
			return ev.seen.Load() >= want
		case <-time.After(time.Millisecond):
		}
	}
	return true
}

// runE2E drives the paced and saturate phases against a set-up system.
// scrape, when non-nil, is switched on for alternate blocks of the
// saturate phase (tracing).
func runE2E(s *system, w workload, ups []stream.Update, nQueries int, seconds float64, scrape *scraper) (*observed, error) {
	o := &observed{epoch: time.Now(), ackTotal: make([]int64, len(ups))}
	o.pacedN = int(w.PacedRate * seconds * pacedShare)
	if o.pacedN > len(ups)/2 {
		o.pacedN = len(ups) / 2
	}
	o.warmupN = int(w.PacedRate * warmup.Seconds())
	if o.pacedN-o.warmupN < minPacedSamp {
		return nil, fmt.Errorf("bench: paced phase would time %d updates; the p95 needs %d", o.pacedN-o.warmupN, minPacedSamp)
	}
	o.ev = newEventLog(s.subSeq, nQueries, len(ups), o.pacedN)
	//tf:goroutine bench-event-reader
	go o.ev.read(s.sub, o.epoch) // ends when run closes s.sub, and run waits on readEnded

	selfBefore := selfCPU()
	if err := o.paced(s, ups[:o.pacedN], w.PacedRate); err != nil {
		return o, fmt.Errorf("paced phase: %w", err)
	}
	budget := time.Duration(seconds * (1 - pacedShare) * float64(time.Second))
	if scrape != nil {
		budget -= singleBudget
		if err := o.singlePath(s, ups, singleBudget); err != nil {
			return o, fmt.Errorf("single-path phase: %w", err)
		}
	}
	if err := o.saturate(s, ups, budget, w.MemoryMark, scrape); err != nil {
		return o, fmt.Errorf("saturate phase: %w", err)
	}
	o.clientCPU = selfCPU() - selfBefore
	return o, nil
}

// paced is the open loop: single i/d lines on a fixed schedule, pipelined,
// every update timed from when it was due.
func (o *observed) paced(s *system, ups []stream.Update, rate float64) error {
	n := len(ups)
	lines, ends, err := wire.UpdateLines(ups)
	if err != nil {
		return err
	}
	o.sentAt = make([]time.Duration, n)
	o.ackAt = make([]time.Duration, n)
	o.pacer = measure.Pacer{Start: time.Now().Add(pacerLeadIn), Rate: rate}

	var acked atomic.Int64
	ackDone := make(chan error, 1)
	//tf:goroutine bench-ack-reader
	go func() {
		for i := 0; i < n; i++ {
			line, err := s.writer.ReadLine()
			if err != nil {
				ackDone <- err
				return
			}
			o.ackAt[i] = time.Since(o.epoch)
			if err := o.singleAck(i, line); err != nil {
				ackDone <- err
				return
			}
			acked.Add(1)
		}
		ackDone <- nil
	}()

	if err := s.writer.SetReadDeadline(time.Now().Add(hardLimit + time.Duration(float64(n)/rate*float64(time.Second)))); err != nil {
		return err
	}
	for sent := 0; sent < n; {
		now := time.Now()
		k := o.pacer.DueBy(now, n)
		if k == sent {
			sleepPrecisely(o.pacer.Due(sent).Sub(now))
			continue
		}
		lo := 0
		if sent > 0 {
			lo = ends[sent-1]
		}
		at := now.Sub(o.epoch)
		for i := sent; i < k; i++ {
			o.sentAt[i] = at
		}
		if err := s.writer.Write(lines[lo:ends[k-1]]); err != nil {
			return err
		}
		if err := s.writer.Flush(); err != nil {
			return err
		}
		sent = k
	}
	o.sent = n

	select {
	case err = <-ackDone:
	case <-time.After(drainLimit):
		o.pacedLate = n - int(acked.Load())
		err = <-ackDone // bounded by the read deadline
	}
	if err != nil {
		return fmt.Errorf("reading acknowledgments: %w", err)
	}
	var want int64
	for _, t := range o.ackTotal[:n] {
		want += t
	}
	if !o.ev.waitSeen(want, drainLimit) {
		o.pacedEvLag = true
		if !o.ev.waitSeen(want, hardLimit) {
			return fmt.Errorf("only %d of %d events arrived", o.ev.seen.Load(), want)
		}
	}
	return nil
}

// singleAck files the acknowledgment of single update i.
func (o *observed) singleAck(i int, line []byte) error {
	ack, err := wire.ParseAck(line)
	switch {
	case errors.Is(err, wire.ErrRefused):
		o.refused++
	case err != nil:
		return err
	default:
		if i > 0 && ack.Seq != o.nextSeq {
			o.seqGaps++
		}
		o.nextSeq = ack.Seq + 1
		o.ackTotal[i] = ack.Total
	}
	return nil
}

// singlePath drives the single-update path flat out for budget, as a
// closed loop with a couple of writes outstanding, and keeps the rate it
// sustained: the capacity the frozen paced rate is a share of. Every update
// is a frame of one to the output checks.
func (o *observed) singlePath(s *system, ups []stream.Update, budget time.Duration) error {
	start := time.Now()
	if err := s.writer.SetReadDeadline(start.Add(budget + hardLimit)); err != nil {
		return err
	}
	first := o.sent
	sent, acked := first, first
	for {
		for sent < len(ups) && sent-acked < window*singleChunk && time.Since(start) < budget {
			end := min(sent+singleChunk, len(ups))
			lines, _, err := wire.UpdateLines(ups[sent:end])
			if err != nil {
				return err
			}
			if err := s.writer.Write(lines); err != nil {
				return err
			}
			if err := s.writer.Flush(); err != nil {
				return err
			}
			sent = end
		}
		if acked == sent {
			break
		}
		line, err := s.writer.ReadLine()
		if err != nil {
			return fmt.Errorf("reading acknowledgment: %w", err)
		}
		if err := o.singleAck(acked, line); err != nil {
			return err
		}
		acked++
		o.frameEnds = append(o.frameEnds, acked)
	}
	o.singleRate = float64(acked-first) / time.Since(start).Seconds()
	o.sent = acked
	return nil
}

// saturate is the closed loop: BATCHB frames of frameSize, window of them
// outstanding, until budget is spent or the stream ends. Peak memory is
// read when update memoryMark is acknowledged.
func (o *observed) saturate(s *system, ups []stream.Update, budget time.Duration, memoryMark int, scrape *scraper) error {
	var framer wire.Framer
	cpuBefore, err := s.usage()
	if err != nil {
		return err
	}
	start := time.Now()
	blockStart, blockFirst, block := start, o.sent, 0
	winStart, winFirst := start, o.sent
	if err := s.writer.SetReadDeadline(start.Add(budget + hardLimit)); err != nil {
		return err
	}
	// sent and acked index updates; at most window frames lie between them.
	sent, acked := o.sent, o.sent
	send := func() error {
		end := min(sent+frameSize, len(ups))
		frame, err := framer.BatchB(ups[sent:end])
		if err != nil {
			return err
		}
		if err := s.writer.Write(frame); err != nil {
			return err
		}
		sent = end
		return s.writer.Flush()
	}
	for {
		for sent < len(ups) && sent-acked < window*frameSize && time.Since(start) < budget {
			if err := send(); err != nil {
				return err
			}
		}
		if acked == sent {
			break
		}
		line, err := s.writer.ReadLine()
		if err != nil {
			return fmt.Errorf("reading frame acknowledgment: %w", err)
		}
		end := min(acked+frameSize, sent)
		ack, err := wire.ParseBatchAck(line)
		switch {
		case errors.Is(err, wire.ErrRefused):
			o.refused += end - acked
		case err != nil:
			return err
		default:
			if ack.Seq != o.nextSeq || ack.N != end-acked {
				o.seqGaps++
			}
			o.nextSeq = ack.Seq + uint64(ack.N)
			o.ackTotal[acked] = ack.Total
		}
		acked = end
		o.frameEnds = append(o.frameEnds, acked)
		if o.markPeakMB == 0 && acked >= memoryMark {
			u, err := s.usage()
			if err != nil {
				return err
			}
			o.markPeakMB = total(u).PeakMB
		}
		if now := time.Now(); now.Sub(winStart) >= rateWindow {
			o.satWindows = append(o.satWindows, float64(acked-winFirst)/now.Sub(winStart).Seconds())
			winStart, winFirst = now, acked
		}

		if scrape != nil {
			if now := time.Now(); now.Sub(blockStart) >= traceBlock {
				rate := float64(acked-blockFirst) / now.Sub(blockStart).Seconds()
				o.blockRates[block%2] = append(o.blockRates[block%2], rate)
				block++
				blockStart, blockFirst = now, acked
				scrape.on.Store(block%2 == 1)
			}
		}
	}
	off := acked
	o.satWall = time.Since(start)
	o.satUpdates = off - o.sent
	o.sent = off
	if scrape != nil {
		scrape.on.Store(false)
	}
	cpuAfter, err := s.usage()
	if err != nil {
		return err
	}
	o.satCPU = total(cpuAfter).CPU - total(cpuBefore).CPU

	var want int64
	for _, t := range o.ackTotal[:o.sent] {
		want += t
	}
	if !o.ev.waitSeen(want, hardLimit) {
		return fmt.Errorf("only %d of %d events arrived", o.ev.seen.Load(), want)
	}
	return nil
}

// sleepPrecisely blocks for d with the kernel's high-resolution timer.
// time.Sleep will not do for the pacer: an idle Go runtime waits for
// timers in epoll_wait, whose timeout has millisecond granularity, so a
// 100 µs sleep returns after a millisecond and the open loop degrades into
// millisecond bursts.
func sleepPrecisely(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) //tf:unchecked-ok an early return (EINTR) just re-enters the pacer loop
}
