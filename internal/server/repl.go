package server

// Replication wiring: the leader side (REPLICATE streams served off the
// durable store's catch-up plans and live append tap) and the follower
// side (applying shipped frames through the engine-owner actor, so the
// replica's transcript is byte-identical to the leader's). See DESIGN.md
// §14 and the internal/replica package for the protocol.

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"turboflux/internal/durable"
	"turboflux/internal/replica"
	"turboflux/internal/stream"
)

// role is the actor's replication role. A server starts as a leader
// (accepting writes) or, with Options.Follow, as a read-only follower;
// PROMOTE flips a follower to leader.
type role uint8

const (
	roleLeader role = iota
	roleFollower
)

// replPingInterval is how often an idle replication stream pings its
// follower (liveness + lag refresh).
const replPingInterval = 500 * time.Millisecond

// feedDepth is the per-follower live-chunk queue capacity on a leader. A
// follower that falls further behind than this many queued chunks is
// disconnected (feed overrun) and reconnects to catch up from its applied
// LSN.
const feedDepth = 256

// followerHandle is the actor-owned state of one connected replication
// stream (one per follower connection).
type followerHandle struct {
	connID  uint64
	addr    string
	feed    *replica.Feed
	plan    *durable.Plan // live until catch-up completes, then released
	cut     uint64        // leader LSN at handshake
	applied uint64        // follower's last acknowledged LSN
	catchup bool          // still streaming the sealed tail
}

// errFollowerReadOnly rejects writes on a follower.
var errFollowerReadOnly = fmt.Errorf("server: read-only follower; send writes to the leader")

// shipFrames is the durable store's append tap: it runs on the actor
// goroutine (inside Store.AppendBatch, called from an apply handler) and forwards the freshly journaled frames to every follower
// feed. The frame bytes are copied once and shared read-only across
// feeds. A follower whose feed is full is cut off (feed overrun) and
// will reconnect and catch up — a slow replica never stalls ingest.
//
//tf:hotpath
func (a *actor) shipFrames(first, last uint64, frames []byte) {
	if len(a.followers) == 0 {
		return
	}
	data := make([]byte, len(frames))
	copy(data, frames)
	c := replica.Chunk{First: first, Count: int(last - first + 1), Data: data}
	//tf:unordered-ok independent per-follower queues
	for _, f := range a.followers {
		f.feed.Offer(c)
	}
}

// handleReplicate registers a new replication stream: it cuts a catch-up
// plan at the current LSN (sealing the active segment and pinning what
// the plan references) and registers the live feed under the same actor
// message, so no append can fall between the plan's cut and the feed.
func (a *actor) handleReplicate(req request) (response, error) {
	st := a.eng.Store()
	if st == nil {
		return response{}, fmt.Errorf("server: replication requires a durable store (-data-dir)")
	}
	if _, dup := a.followers[req.connID]; dup {
		return response{}, fmt.Errorf("server: connection already replicating")
	}
	plan, err := st.CatchupPlan(req.lsn)
	if err != nil {
		return response{}, err
	}
	f := &followerHandle{
		connID:  req.connID,
		addr:    req.addr,
		feed:    replica.NewFeed(feedDepth),
		plan:    plan,
		cut:     plan.CutLSN,
		applied: req.lsn,
		catchup: true,
	}
	a.followers[req.connID] = f
	return response{seq: plan.CutLSN, plan: plan, feed: f.feed}, nil
}

// handleReplAck records a follower's applied position (the lag STATS
// reports is durable LSN minus this).
func (a *actor) handleReplAck(req request) {
	if f := a.followers[req.connID]; f != nil && req.lsn > f.applied {
		f.applied = req.lsn
	}
}

// handleReplCaughtUp releases a stream's catch-up pin once its pump has
// finished (or abandoned) the sealed tail; Compact may then reclaim the
// segments it was reading.
func (a *actor) handleReplCaughtUp(connID uint64) {
	if f := a.followers[connID]; f != nil && f.plan != nil {
		f.plan.Release()
		f.plan = nil
		f.catchup = false
	}
}

// dropRepl tears down a connection's replication stream: the pin is
// released and the feed closed, which terminates the pump's drain loop.
func (a *actor) dropRepl(connID uint64) {
	f := a.followers[connID]
	if f == nil {
		return
	}
	if f.plan != nil {
		f.plan.Release()
		f.plan = nil
	}
	f.feed.Close()
	delete(a.followers, connID)
}

// handleReplFrames applies one shipped chunk on a follower: decode every
// frame (CRC-verified), journal them into the follower's own WAL — the
// follower assigns the same LSNs the leader did, because the chunk
// starts exactly at its LSN+1 — and evaluate them through the engine
// with the normal per-update boundary, so subscribers see events
// byte-identical to the leader's. Applies are accepted regardless of
// role: they come from the replication link, not a client write. It
// returns the store's LSN after the chunk.
func (a *actor) handleReplFrames(req request) (uint64, error) {
	if a.eng.Store() == nil {
		return 0, fmt.Errorf("server: not a durable store")
	}
	lsn := a.eng.LSN()
	if req.lsn != lsn+1 {
		return 0, fmt.Errorf("server: replication gap: chunk starts at LSN %d, store is at %d", req.lsn, lsn)
	}
	ups := make([]stream.Update, 0, req.count)
	body := req.data
	for len(body) > 0 {
		u, n, err := durable.DecodeFrame(body)
		if err != nil {
			return 0, fmt.Errorf("server: replicated frame %d: %w", len(ups)+1, err)
		}
		ups = append(ups, u)
		body = body[n:]
	}
	if len(ups) != req.count {
		return 0, fmt.Errorf("server: replicated chunk decoded %d records, header said %d", len(ups), req.count)
	}
	_, err := a.eng.ApplyBatchFunc(ups, a.boundary)
	return a.eng.LSN(), err
}

// handleReplSeed adopts a leader snapshot on a fresh follower. The
// engine is rebuilt over the snapshot's graph; the actor re-points its
// dictionaries and fast-forwards its sequence counter so acked sequence
// numbers keep equaling LSNs.
func (a *actor) handleReplSeed(req request) (uint64, error) {
	if a.eng.Store() == nil {
		return 0, fmt.Errorf("server: not a durable store")
	}
	if err := a.eng.Reseed(req.data); err != nil {
		return 0, err
	}
	a.vdict = a.eng.VertexLabels()
	a.edict = a.eng.EdgeLabels()
	a.seq = a.eng.LSN()
	return a.seq, nil
}

// handlePromote flips a follower to leader: the WAL is sealed (rotated
// and synced) so the promoted history ends on an immutable segment
// boundary, and writes are accepted from here on. The server stops the
// replication link before sending this message.
func (a *actor) handlePromote() (uint64, error) {
	if a.role != roleFollower {
		return 0, fmt.Errorf("server: already leader")
	}
	if st := a.eng.Store(); st != nil {
		if err := st.Rotate(); err != nil {
			return 0, err
		}
		if err := st.Sync(); err != nil {
			return 0, err
		}
	}
	a.role = roleLeader
	return a.seq, nil
}

// replStatsLines renders the replication STATS lines: the leader's
// per-follower positions, or the follower's link state.
func (a *actor) replStatsLines(lines []string) []string {
	if a.role == roleFollower {
		lsn := a.eng.LSN()
		leaderLSN := a.repl.LeaderLSN
		if lsn > leaderLSN {
			leaderLSN = lsn
		}
		lines = append(lines, fmt.Sprintf(
			"replica role=follower leader=%s connected=%t applied_lsn=%d leader_lsn=%d lag=%d",
			a.leaderAddr, a.repl.Connected, lsn, leaderLSN, leaderLSN-lsn))
		return lines
	}
	if a.eng.Store() == nil {
		return lines
	}
	lines = append(lines, fmt.Sprintf("replica role=leader followers=%d", len(a.followers)))
	ids := make([]uint64, 0, len(a.followers))
	//tf:unordered-ok ids are sorted before emission
	for id := range a.followers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	lsn := a.eng.LSN()
	for _, id := range ids {
		f := a.followers[id]
		lines = append(lines, fmt.Sprintf(
			"follower conn=%d addr=%s applied_lsn=%d lag=%d catchup=%t",
			f.connID, f.addr, f.applied, lsn-f.applied, f.catchup))
	}
	return lines
}

// linkCallbacks wires a follower's replication link to the actor, so
// snapshot seeding and frame application stay on the actor goroutine
// (actor-confinement holds for replicated state too).
func (a *actor) linkCallbacks() replica.Callbacks {
	return replica.Callbacks{
		Applied: func() uint64 {
			resp, _ := a.box.Call(request{kind: reqReplLSN}) // ErrClosed leaves it zero
			return resp.seq
		},
		Seed: func(lsn uint64, data []byte) (uint64, error) {
			resp, err := a.box.Call(request{kind: reqReplSeed, data: data})
			return resp.seq, err
		},
		Apply: func(first uint64, count int, frames []byte) (uint64, error) {
			resp, err := a.box.Call(request{kind: reqReplFrames, lsn: first, count: count, data: frames})
			return resp.seq, err
		},
		Status: func(st replica.State) {
			a.box.Send(request{kind: reqReplStatus, state: st}) //tf:unchecked-ok best-effort status report
		},
	}
}

// stopLink stops the follower's replication link, if any. Idempotent and
// safe to call concurrently (PROMOTE races Shutdown); it blocks until the
// link goroutine has exited, so no replication callback runs afterwards.
func (a *actor) stopLink() {
	if a.link != nil {
		a.link.Stop()
	}
}

// Promote handles PROMOTE: stop the replication link first (on the
// connection's goroutine, so the link's in-flight actor calls can
// complete), then flip the actor's role.
func (a *actor) Promote() error {
	a.stopLink()
	_, err := a.box.Call(request{kind: reqPromote})
	return err
}

// Replicate serves one REPLICATE request: register the stream with the
// actor, then split the connection — a pump goroutine pushes catch-up and
// live frames while this (reader) goroutine consumes RACK acknowledgments
// until the peer goes away. It returns nil when replication ends, which
// closes the connection.
func (a *actor) Replicate(c *Conn, after uint64) error {
	if len(c.subs) > 0 {
		return errors.New("server: REPLICATE not allowed on a connection with subscriptions")
	}
	resp, err := a.box.Call(request{kind: reqReplicate, connID: c.id, lsn: after, addr: c.nc.RemoteAddr().String()})
	if err != nil {
		return err
	}
	if c.WriteLine(fmt.Sprintf("+OK %d", resp.seq)) != nil {
		return nil
	}
	c.Go(func() { a.replPump(c, resp.plan, resp.feed) })

	// Replication-mode read loop: only RACK and QUIT are meaningful.
	for {
		line, err := c.ReadLine()
		if err != nil {
			return nil
		}
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "":
			continue
		case replica.IsAck(trimmed):
			lsn, perr := replica.ParseAck(trimmed)
			if perr != nil {
				if c.WriteErr(perr) != nil {
					return nil
				}
				continue
			}
			if a.box.Send(request{kind: reqReplAck, connID: c.id, lsn: lsn}) != nil {
				return nil
			}
		case trimmed == "QUIT":
			c.WriteLine("+OK bye") //tf:unchecked-ok closing anyway
			return nil
		default:
			if c.WriteErr(fmt.Errorf("server: connection is replicating; only RACK and QUIT accepted")) != nil {
				return nil
			}
		}
	}
}

// replPump streams one follower's data: the catch-up plan's snapshot
// and sealed segments first, then the live feed, pinging when idle. It
// ends when the feed closes (connection teardown or overrun) or the
// catch-up fails; a failed or overrun stream force-closes the socket so
// the reader loop tears the connection down and the follower reconnects.
func (a *actor) replPump(c *Conn, plan *durable.Plan, feed *replica.Feed) {
	lastShipped, cerr := streamCatchup(c.Wire, plan)
	// Release the compaction pin whether or not catch-up succeeded.
	a.box.Send(request{kind: reqReplCaughtUp, connID: c.id}) //tf:unchecked-ok best-effort after shutdown
	if cerr != nil {
		c.nc.Close() //tf:unchecked-ok forcing reader-loop teardown
		// Empty the feed so chunks queued before the actor processes the
		// drop do not accumulate.
		for range feed.Chunks() {
		}
		return
	}
	ticker := time.NewTicker(replPingInterval)
	defer ticker.Stop()
	var scratch []byte
	for {
		select {
		case ch, ok := <-feed.Chunks():
			if !ok {
				if feed.Overrun() {
					c.nc.Close() //tf:unchecked-ok forcing reader-loop teardown
				}
				return
			}
			scratch = replica.AppendFramesHeader(scratch[:0], ch.First, ch.Count, len(ch.Data))
			c.WriteFrame(scratch, ch.Data, len(feed.Chunks()) == 0) //tf:unchecked-ok sticky error; reader loop notices the dead peer
			lastShipped = ch.Last()
		case <-ticker.C:
			c.WriteFrame(replica.AppendPing(scratch[:0], lastShipped), nil, true) //tf:unchecked-ok sticky error; reader loop notices the dead peer
		}
	}
}

// streamCatchup ships the plan's snapshot and sealed-segment tail,
// returning the highest LSN shipped.
func streamCatchup(w *Wire, plan *durable.Plan) (uint64, error) {
	var scratch []byte
	shipped := plan.After
	if plan.SnapPath != "" {
		data, err := os.ReadFile(plan.SnapPath)
		if err != nil {
			return shipped, err
		}
		scratch = replica.AppendSnapHeader(scratch[:0], plan.SnapLSN, len(data))
		if err := w.WriteFrame(scratch, data, true); err != nil {
			return shipped, err
		}
		shipped = plan.SnapLSN
	}
	err := replica.ChunkSegments(plan.Segments, shipped, func(ch replica.Chunk) error {
		scratch = replica.AppendFramesHeader(scratch[:0], ch.First, ch.Count, len(ch.Data))
		if err := w.WriteFrame(scratch, ch.Data, true); err != nil {
			return err
		}
		shipped = ch.Last()
		return nil
	})
	return shipped, err
}
