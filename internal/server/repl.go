package server

// WAL-shipping replication (DESIGN.md §14). A follower dials the leader's
// client port and sends
//
//	REPLICATE <appliedLSN>
//
// where appliedLSN is the last record it applied (0 for a fresh follower).
// The leader replies "+OK <cutLSN>" and the connection becomes a
// replication stream: the leader pushes, the follower only acknowledges.
//
//	*RSNAP <lsn> <nbytes>              nbytes of snapshot follow: the
//	                                   state covering records 1..lsn
//	*RFRAMES <first> <count> <nbytes>  nbytes of CRC-framed WAL records
//	                                   follow: LSNs first..first+count-1
//	*RPING <lsn>                       heartbeat; lsn is the newest LSN
//	                                   the leader shipped
//	RACK <appliedLSN>                  the follower's acknowledgement,
//	                                   after every push
//
// Frames are the exact bytes of the leader's WAL (internal/durable record
// framing), so the follower verifies each record's checksum before it
// applies any; a corrupt frame drops the connection, and the follower
// reconnects from its last applied LSN, skipping whatever prefix the
// leader sends again. This file holds the codec, the actor's handlers and
// the leader's stream; link.go holds the follower's side.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"turboflux/internal/durable"
	"turboflux/internal/stream"
)

// Replication line words. Pushes start with '*' so a follower (or any
// client library) can tell them from command replies.
const (
	snapWord   = "*RSNAP"
	framesWord = "*RFRAMES"
	pingWord   = "*RPING"
	ackWord    = "RACK"
)

// Size limits on replication pushes. A leader never exceeds them; a
// follower refuses a header claiming more before it allocates the body.
const (
	// maxFramesBytes bounds one *RFRAMES body. A live chunk is one WAL
	// append (at most a BATCHB frame, 4 MiB of records) and a catch-up
	// chunk is far smaller, so 8 MiB leaves headroom without letting a
	// corrupt header demand gigabytes.
	maxFramesBytes = 8 << 20
	// maxSnapshotBytes bounds one *RSNAP body.
	maxSnapshotBytes = 1 << 31
	// maxChunkRecords bounds the record count of one *RFRAMES chunk.
	maxChunkRecords = 200_000
)

// replRanges gives, for each replication word, the range of each number
// that follows it on its line: an LSN, then a count or length.
var replRanges = map[string][][2]uint64{
	snapWord:   {{0, math.MaxUint64}, {1, maxSnapshotBytes}},
	framesWord: {{1, math.MaxUint64}, {1, maxChunkRecords}, {1, maxFramesBytes}},
	pingWord:   {{0, math.MaxUint64}},
	ackWord:    {{0, math.MaxUint64}},
}

// replLine is one parsed replication line: its word and numbers, in the
// order the protocol lists them.
type replLine struct {
	word string
	n    [3]uint64
}

// parseReplLine parses a replication line (no trailing newline). A line
// with the wrong count of numbers, or a number outside its range, is an
// error.
func parseReplLine(line string) (replLine, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return replLine{}, errors.New("server: empty replication line")
	}
	ranges, ok := replRanges[fields[0]]
	if !ok {
		return replLine{}, fmt.Errorf("server: unknown replication word %q", clip(fields[0]))
	}
	if len(fields) != 1+len(ranges) {
		return replLine{}, fmt.Errorf("server: malformed %s line %q", fields[0], clip(line))
	}
	p := replLine{word: fields[0]}
	for i, r := range ranges {
		n, err := strconv.ParseUint(fields[1+i], 10, 64)
		if err != nil || n < r[0] || n > r[1] {
			return replLine{}, fmt.Errorf("server: bad %s field %q", fields[0], clip(fields[1+i]))
		}
		p.n[i] = n
	}
	return p, nil
}

// appendRepl appends one replication line: word, then each number.
func appendRepl(dst []byte, word string, nums ...uint64) []byte {
	dst = append(dst, word...)
	for _, n := range nums {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, n, 10)
	}
	return append(dst, '\n')
}

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

// Catch-up chunking targets: a catch-up chunk is shipped once it holds
// this many bytes or records, whichever comes first.
const (
	catchupChunkBytes   = 256 << 10
	catchupChunkRecords = 4096
)

// chunk is one WAL append shipped live: the CRC-framed records of LSNs
// first..last, shared read-only by every follower's feed.
type chunk struct {
	first, last uint64
	frames      []byte
}

// followerHandle is the actor-owned state of one connected replication
// stream (one per follower connection).
type followerHandle struct {
	connID uint64
	addr   string
	// feed queues live chunks for the stream's pump. shipFrames closes it
	// and sets it nil when it is full (an overrun); dropRepl closes it
	// otherwise.
	feed    chan chunk
	plan    *durable.Plan // live until catch-up completes, then released
	applied uint64        // follower's last acknowledged LSN
	catchup bool          // still streaming the sealed tail
}

var (
	// errFollowerReadOnly rejects writes on a follower.
	errFollowerReadOnly = errors.New("server: read-only follower; send writes to the leader")
	// errReplicating answers a replication stream's peer sending anything
	// but RACK or QUIT.
	errReplicating = errors.New("server: connection is replicating; only RACK and QUIT accepted")
)

// shipFrames is the durable store's append tap: it runs on the actor
// goroutine (inside Store.AppendBatch, called from an apply handler) and
// queues the freshly journaled frames on every follower's feed, without
// blocking. The frame bytes are copied once and shared read-only across
// feeds. A follower whose feed is full is cut off — its feed closes, so
// its pump closes the connection, and it reconnects and catches up — so a
// slow replica never stalls ingest.
//
//tf:hotpath
func (a *actor) shipFrames(first, last uint64, frames []byte) {
	if len(a.followers) == 0 {
		return
	}
	data := make([]byte, len(frames))
	copy(data, frames)
	c := chunk{first: first, last: last, frames: data}
	//tf:unordered-ok independent per-follower queues
	for _, f := range a.followers {
		if f.feed == nil {
			continue // overrun: the handle waits for dropRepl
		}
		select {
		case f.feed <- c:
		default:
			close(f.feed)
			f.feed = nil
		}
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
		feed:    make(chan chunk, feedDepth),
		plan:    plan,
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
// released and the feed, unless an overrun closed it, is closed, which
// ends the pump.
func (a *actor) dropRepl(connID uint64) {
	f := a.followers[connID]
	if f == nil {
		return
	}
	if f.plan != nil {
		f.plan.Release()
		f.plan = nil
	}
	if f.feed != nil {
		close(f.feed)
	}
	delete(a.followers, connID)
}

// handleReplFrames applies one shipped chunk on a follower: decode every
// frame (CRC-verified), skip the records already applied (a leader
// resuming a session may send them again), journal the rest into the
// follower's own WAL — at the LSNs the leader gave them, because they
// start exactly at the store's LSN+1 — and evaluate them through the
// engine with the normal per-update boundary, so subscribers see events
// byte-identical to the leader's. Applies are accepted regardless of
// role: they come from the replication link, not a client write. It
// returns the store's LSN after the chunk.
func (a *actor) handleReplFrames(req request) (uint64, error) {
	if a.eng.Store() == nil {
		return 0, fmt.Errorf("server: not a durable store")
	}
	lsn := a.eng.LSN()
	if req.lsn > lsn+1 {
		return 0, fmt.Errorf("server: replication gap: chunk starts at LSN %d, store is at %d", req.lsn, lsn)
	}
	ups := make([]stream.Update, 0, req.count)
	decoded := 0
	for body := req.data; len(body) > 0; decoded++ {
		u, n, err := durable.DecodeFrame(body)
		if err != nil {
			return 0, fmt.Errorf("server: replicated frame %d: %w", decoded+1, err)
		}
		if req.lsn+uint64(decoded) > lsn {
			ups = append(ups, u)
		}
		body = body[n:]
	}
	if decoded != req.count {
		return 0, fmt.Errorf("server: replicated chunk decoded %d records, header said %d", decoded, req.count)
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
		leaderLSN := max(a.leaderLSN, lsn)
		lines = append(lines, fmt.Sprintf(
			"replica role=follower leader=%s connected=%t applied_lsn=%d leader_lsn=%d lag=%d",
			a.leaderAddr, a.linkUp, lsn, leaderLSN, leaderLSN-lsn))
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
// closes the connection. A connection whose subscriptions have all ended
// (an eviction, an unregistered query) may replicate.
func (a *actor) Replicate(c *Conn, after uint64) error {
	//tf:unordered-ok looking for any live subscription
	for _, sub := range c.subs {
		if !sub.Finished() {
			return errors.New("server: REPLICATE not allowed on a connection with subscriptions")
		}
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
		switch trimmed {
		case "":
			continue
		case "QUIT":
			c.WriteLine("+OK bye") //tf:unchecked-ok closing anyway
			return nil
		}
		ack, perr := replLine{}, errReplicating
		if strings.Fields(trimmed)[0] == ackWord {
			ack, perr = parseReplLine(trimmed)
		}
		if perr != nil {
			if c.WriteErr(perr) != nil {
				return nil
			}
			continue
		}
		if a.box.Send(request{kind: reqReplAck, connID: c.id, lsn: ack.n[0]}) != nil {
			return nil
		}
	}
}

// replPump streams one follower's data: the catch-up plan's snapshot and
// sealed segments first, then the live feed, pinging when idle. It ends
// when the feed closes — connection teardown, or an overrun — and then
// closes the socket, so the reader loop tears the connection down and an
// overrun follower reconnects. A failed catch-up closes the socket at
// once; the loop then writes to a dead wire until teardown closes the
// feed.
func (a *actor) replPump(c *Conn, plan *durable.Plan, feed <-chan chunk) {
	lastShipped, cerr := streamCatchup(c.Wire, plan)
	// Release the compaction pin whether or not catch-up succeeded.
	a.box.Send(request{kind: reqReplCaughtUp, connID: c.id}) //tf:unchecked-ok best-effort after shutdown
	if cerr != nil {
		c.nc.Close() //tf:unchecked-ok forcing reader-loop teardown
	}
	ticker := time.NewTicker(replPingInterval)
	defer ticker.Stop()
	var scratch []byte
	for {
		select {
		case ch, ok := <-feed:
			if !ok {
				c.nc.Close() //tf:unchecked-ok forcing reader-loop teardown
				return
			}
			scratch = appendRepl(scratch[:0], framesWord, ch.first, ch.last-ch.first+1, uint64(len(ch.frames)))
			c.WriteFrame(scratch, ch.frames, len(feed) == 0) //tf:unchecked-ok sticky error; reader loop notices the dead peer
			lastShipped = ch.last
		case <-ticker.C:
			c.WriteFrame(appendRepl(scratch[:0], pingWord, lastShipped), nil, true) //tf:unchecked-ok sticky error; reader loop notices the dead peer
		}
	}
}

// streamCatchup ships the plan's snapshot, then every record of its sealed
// segments past the snapshot, in order, in chunks of at most
// catchupChunkBytes (plus one frame) or catchupChunkRecords. It returns the
// highest LSN shipped; a segment that fails to decode aborts the stream.
func streamCatchup(w *Wire, plan *durable.Plan) (uint64, error) {
	var scratch []byte
	shipped := plan.After
	if plan.SnapPath != "" {
		data, err := os.ReadFile(plan.SnapPath)
		if err != nil {
			return shipped, err
		}
		scratch = appendRepl(scratch[:0], snapWord, plan.SnapLSN, uint64(len(data)))
		if err := w.WriteFrame(scratch, data, true); err != nil {
			return shipped, err
		}
		shipped = plan.SnapLSN
	}
	// buf holds the frames of LSNs first..last not yet shipped.
	buf := make([]byte, 0, catchupChunkBytes+4096)
	var first, count uint64
	last := shipped
	flush := func() error {
		if count == 0 {
			return nil
		}
		scratch = appendRepl(scratch[:0], framesWord, first, count, uint64(len(buf)))
		if err := w.WriteFrame(scratch, buf, true); err != nil {
			return err
		}
		shipped = last
		buf = buf[:0]
		count = 0
		return nil
	}
	for _, seg := range plan.Segments {
		err := durable.ReadSegmentFrames(seg.Path, seg.First, last, func(lsn uint64, frame []byte) error {
			if count == 0 {
				first = lsn
			}
			buf = append(buf, frame...)
			count++
			last = lsn
			if len(buf) >= catchupChunkBytes || count >= catchupChunkRecords {
				return flush()
			}
			return nil
		})
		if err != nil {
			return shipped, err
		}
	}
	return shipped, flush()
}
