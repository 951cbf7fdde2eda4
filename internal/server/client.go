package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"turboflux"
	"turboflux/internal/stream"
)

// Event is one push received on a subscription: a match (Positive,
// Mapping, Seq) or — when Evicted is set — the notice that the server
// cancelled the subscription (slow-consumer eviction or query
// unregistration).
type Event struct {
	Query    string
	Seq      uint64
	Positive bool
	Mapping  []turboflux.VertexID
	Evicted  bool
}

// Ack is the acknowledgment of a single update: the server's global
// sequence number and the per-query match counts it produced. A Backend
// acks a whole run with one Ack, whose Seq is the run's first number.
type Ack struct {
	Seq    uint64
	Total  int64
	Counts map[string]int64
}

// BatchAck acknowledges a batch: the sequence number of its first update,
// the number of updates applied, and the total match count.
type BatchAck struct {
	FirstSeq uint64
	Applied  int
	Total    int64
}

// Client is a Go client for the TurboFlux server, safe for one
// request/response caller plus any number of Events consumers. Pushed
// events are delivered on the Events channel; if the consumer stops
// reading, the client stops reading the socket, which is exactly the
// slow-consumer pressure the server's policy acts on.
type Client struct {
	nc net.Conn

	mu sync.Mutex // serializes request/response exchanges
	bw *bufio.Writer

	// reqTimeout bounds one request/response exchange (DialOptions). A
	// timed-out exchange poisons the connection — the reply could still
	// arrive later and desynchronize the stream — so the socket is closed
	// and every later request fails fast.
	reqTimeout time.Duration

	resp   chan respMsg
	events chan Event
	onPush func(run []byte, more bool) // DialOptions.OnPush

	// inflight counts exchanges whose request may have been written and
	// whose reply is not yet consumed. A server only replies to requests,
	// so while it is 0 every line already read is a push. An exchange that
	// fails before its whole reply is read leaves it raised for good, and
	// runs are then checked line by line.
	inflight atomic.Int32

	done     chan struct{} // closed by Close
	dead     chan struct{} // closed when the read loop exits
	errMu    sync.Mutex
	readErr  error
	closeOne sync.Once
}

type respMsg struct {
	line string
}

// DialOptions tunes a client connection. The zero value means no dial
// bound, no per-request bound, and the default event buffer — Dial's
// behavior. The shard coordinator sets both timeouts so one hung shard
// cannot block the router forever.
type DialOptions struct {
	// Timeout bounds the TCP connect (0 = the OS default).
	Timeout time.Duration
	// RequestTimeout bounds each request/response exchange, measured from
	// the first write to the reply. On expiry the exchange fails and the
	// connection is closed: a late reply cannot be re-synchronized with a
	// line protocol, so the client must redial.
	RequestTimeout time.Duration
	// EventBuf is the Events channel capacity (0 = Dial's default 256;
	// negative = unbuffered).
	EventBuf int
	// OnPush, when non-nil, is handed pushed ('*'-prefixed) lines as they
	// arrived, in place of parsing them into Events (which then only
	// closes when the connection ends). Each call gets a run: every
	// complete push line already buffered from the first one on,
	// contiguous and terminators included, stopping before the first
	// non-push or partial line — so replies still reach their request in
	// order between runs. The run is valid only during the call, which
	// runs on the read-loop goroutine. more reports that the next run has
	// begun arriving (a partial push line is buffered), so a forwarder can
	// hold its flush; a run cut short by a reply reports false, since
	// nothing may follow the reply. The shard coordinator relays
	// subscriptions through it.
	OnPush func(run []byte, more bool)
}

// Dial connects to a TurboFlux server with the default event buffer.
func Dial(addr string) (*Client, error) { return DialWith(addr, DialOptions{}) }

// DialWith connects with explicit dial and request timeouts.
func DialWith(addr string, opt DialOptions) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, opt.Timeout)
	if err != nil {
		return nil, err
	}
	return newClient(nc, opt), nil
}

// newClient starts a client on an established connection.
func newClient(nc net.Conn, opt DialOptions) *Client {
	eventBuf := opt.EventBuf
	switch {
	case eventBuf == 0:
		eventBuf = 256
	case eventBuf < 0:
		eventBuf = 0
	}
	c := &Client{
		nc:         nc,
		bw:         bufio.NewWriter(nc),
		reqTimeout: opt.RequestTimeout,
		resp:       make(chan respMsg), //tf:unbuffered-ok request/response rendezvous; one exchange in flight by design
		events:     make(chan Event, eventBuf),
		onPush:     opt.OnPush,
		done:       make(chan struct{}),
		dead:       make(chan struct{}),
	}
	//tf:goroutine client-read-loop
	go c.readLoop()
	return c
}

// Events returns the push stream. It is closed when the connection ends.
func (c *Client) Events() <-chan Event { return c.events }

// Err returns the terminal read-loop error, if any (nil while healthy and
// after a clean Close).
func (c *Client) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.readErr
}

// Close tears the connection down. Pending Events deliveries end; the
// Events channel is closed once the read loop exits.
func (c *Client) Close() error {
	c.closeOne.Do(func() { close(c.done) })
	err := c.nc.Close()
	<-c.dead
	return err
}

// readLoop splits the connection into lines in one read buffer of
// MaxLineBytes: a line longer than that cannot be framed and ends the
// connection. Under OnPush, a push line and the complete push lines
// buffered behind it go out as one run — with no exchange in flight, every
// complete line buffered, unchecked.
func (c *Client) readLoop() {
	defer close(c.events)
	defer close(c.dead)
	buf := make([]byte, MaxLineBytes)
	r, w := 0, 0 // buf[r:w] is read and not yet consumed
	for {
		nl := bytes.IndexByte(buf[r:w], '\n')
		if nl < 0 {
			w = copy(buf, buf[r:w]) // keep the partial line, read the rest
			r = 0
			if w == len(buf) {
				c.setErr(fmt.Errorf("server: reply line exceeds %d bytes", MaxLineBytes))
				return
			}
			n, err := c.nc.Read(buf[w:])
			w += n
			if n == 0 && err != nil {
				c.setErr(err)
				return
			}
			continue
		}
		end := r + nl + 1
		if buf[r] == '*' && c.onPush != nil {
			if c.inflight.Load() == 0 {
				end = r + bytes.LastIndexByte(buf[r:w], '\n') + 1
			}
			for end < w && buf[end] == '*' {
				k := bytes.IndexByte(buf[end:w], '\n')
				if k < 0 {
					break
				}
				end += k + 1
			}
			c.onPush(buf[r:end], end < w && buf[end] == '*')
			r = end
			continue
		}
		b := buf[r:end]
		r = end
		line := strings.TrimRight(string(b), "\r\n")
		if b[0] == '*' {
			ev, err := parseEvent(line)
			if err != nil {
				c.setErr(err)
				return
			}
			select {
			case c.events <- ev:
			case <-c.done:
				return
			}
			continue
		}
		select {
		case c.resp <- respMsg{line: line}:
		case <-c.done:
			return
		}
	}
}

func (c *Client) setErr(err error) {
	select {
	case <-c.done:
		return // closed deliberately; the read error is just the close
	default:
	}
	c.errMu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	c.errMu.Unlock()
}

// parseEvent decodes "*EVENT <query> <seq> <sign> <v...>" and
// "*EVICTED <query>" lines.
func parseEvent(line string) (Event, error) {
	fields := strings.Fields(line)
	switch fields[0] {
	case "*EVICTED":
		if len(fields) != 2 {
			return Event{}, fmt.Errorf("server: bad eviction notice %q", line)
		}
		return Event{Query: fields[1], Evicted: true}, nil
	case "*EVENT":
		if len(fields) < 4 {
			return Event{}, fmt.Errorf("server: bad event %q", line)
		}
		seq, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return Event{}, fmt.Errorf("server: bad event seq %q", line)
		}
		ev := Event{Query: fields[1], Seq: seq, Positive: fields[3] == "+"}
		if !ev.Positive && fields[3] != "-" {
			return Event{}, fmt.Errorf("server: bad event sign %q", line)
		}
		ev.Mapping = make([]turboflux.VertexID, 0, len(fields)-4)
		for _, f := range fields[4:] {
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return Event{}, fmt.Errorf("server: bad event vertex %q", line)
			}
			ev.Mapping = append(ev.Mapping, turboflux.VertexID(v))
		}
		return ev, nil
	default:
		return Event{}, fmt.Errorf("server: unknown push %q", line)
	}
}

// do performs one request/response exchange. body, when non-nil, is
// written verbatim after the request line (batch payloads).
func (c *Client) do(reqLine string, body []byte) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight.Add(1) // a failed write leaves it raised: a reply may still come
	deadline := c.startExchange()
	if _, err := c.bw.WriteString(reqLine); err != nil {
		return "", err
	}
	if err := c.bw.WriteByte('\n'); err != nil {
		return "", err
	}
	if body != nil {
		if _, err := c.bw.Write(body); err != nil {
			return "", err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return "", err
	}
	defer c.inflight.Add(-1) // the reply is read, or the connection is gone
	return c.recv(deadline)
}

// startExchange begins one request/response exchange under mu: with a
// request timeout configured it arms the write deadline and returns the
// reply deadline channel (nil otherwise, which never fires).
func (c *Client) startExchange() <-chan time.Time {
	if c.reqTimeout <= 0 {
		return nil
	}
	c.nc.SetWriteDeadline(time.Now().Add(c.reqTimeout)) //tf:unchecked-ok deadline on a live conn; writes surface the error
	return time.After(c.reqTimeout)
}

// timedOut poisons the connection after an expired exchange: the reply may
// still arrive and cannot be matched to a request anymore, so the socket
// is closed (the read loop then exits and later requests fail fast).
func (c *Client) timedOut() error {
	err := fmt.Errorf("server: request timed out after %v", c.reqTimeout)
	c.setErr(err)
	c.nc.Close() //tf:unchecked-ok poisoning a timed-out conn
	return err
}

// recv waits for the next response line (the caller holds mu): a "+"
// reply without its prefix, or a "-" reply as an error.
func (c *Client) recv(deadline <-chan time.Time) (string, error) {
	line, err := c.recvLine(deadline)
	switch {
	case err != nil:
		return "", err
	case strings.HasPrefix(line, "-ERR "):
		return "", errors.New(strings.TrimPrefix(line, "-ERR "))
	case strings.HasPrefix(line, "-"):
		return "", errors.New(strings.TrimPrefix(line, "-"))
	case !strings.HasPrefix(line, "+"):
		return "", fmt.Errorf("server: unexpected response %q", line)
	}
	return strings.TrimPrefix(line, "+"), nil
}

// recvLine waits for one raw line: a reply, or a STATS payload line. A
// dead connection reports the read loop's error.
func (c *Client) recvLine(deadline <-chan time.Time) (string, error) {
	select {
	case m := <-c.resp:
		return m.line, nil
	case <-deadline:
		return "", c.timedOut()
	case <-c.dead:
		if err := c.Err(); err != nil {
			return "", err
		}
		return "", errors.New("server: connection closed")
	}
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.do("PING", nil)
	return err
}

// Register registers a continuous query from a qlang pattern.
func (c *Client) Register(name, pattern string) error {
	_, err := c.do("REGISTER "+name+" "+pattern, nil)
	return err
}

// Unregister removes a query. Its subscribers receive eviction notices.
func (c *Client) Unregister(name string) error {
	_, err := c.do("UNREGISTER "+name, nil)
	return err
}

// Queries lists the registered query names in registration order.
func (c *Client) Queries() ([]string, error) {
	line, err := c.do("QUERIES", nil)
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(line) // "OK <k> names..."
	if len(fields) < 2 {
		return nil, fmt.Errorf("server: bad QUERIES reply %q", line)
	}
	return fields[2:], nil
}

// Label interns a label name of the given kind ("vertex" or "edge") and
// returns its numeric id, the value update records use on the wire.
func (c *Client) Label(kind, name string) (turboflux.Label, error) {
	line, err := c.do("LABEL "+kind+" "+name, nil)
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return 0, fmt.Errorf("server: bad LABEL reply %q", line)
	}
	n, err := strconv.ParseUint(fields[1], 10, 16)
	if err != nil {
		return 0, fmt.Errorf("server: bad LABEL reply %q", line)
	}
	return turboflux.Label(n), nil
}

// Apply sends one update and returns its acknowledgment.
func (c *Client) Apply(u turboflux.Update) (Ack, error) {
	line, err := c.do(u.String(), nil)
	if err != nil {
		return Ack{}, err
	}
	return parseAck(line)
}

// Insert applies one edge insertion.
func (c *Client) Insert(from turboflux.VertexID, l turboflux.Label, to turboflux.VertexID) (Ack, error) {
	return c.Apply(turboflux.Insert(from, l, to))
}

// Delete applies one edge deletion.
func (c *Client) Delete(from turboflux.VertexID, l turboflux.Label, to turboflux.VertexID) (Ack, error) {
	return c.Apply(turboflux.Delete(from, l, to))
}

// DeclareVertex declares a labeled vertex.
func (c *Client) DeclareVertex(v turboflux.VertexID, labels ...turboflux.Label) (Ack, error) {
	return c.Apply(turboflux.DeclareVertex(v, labels...))
}

func parseAck(line string) (Ack, error) {
	fields := strings.Fields(line) // "OK <seq> <total> [k=v ...]"
	if len(fields) < 3 {
		return Ack{}, fmt.Errorf("server: bad update ack %q", line)
	}
	seq, err1 := strconv.ParseUint(fields[1], 10, 64)
	total, err2 := strconv.ParseInt(fields[2], 10, 64)
	if err1 != nil || err2 != nil {
		return Ack{}, fmt.Errorf("server: bad update ack %q", line)
	}
	ack := Ack{Seq: seq, Total: total}
	if len(fields) > 3 {
		ack.Counts = make(map[string]int64, len(fields)-3)
		for _, f := range fields[3:] {
			name, val, ok := strings.Cut(f, "=")
			if !ok {
				return Ack{}, fmt.Errorf("server: bad update ack %q", line)
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Ack{}, fmt.Errorf("server: bad update ack %q", line)
			}
			ack.Counts[name] = n
		}
	}
	return ack, nil
}

// Batch applies updates through the text batch frame.
func (c *Client) Batch(ups []turboflux.Update) (BatchAck, error) {
	if len(ups) == 0 {
		return BatchAck{}, errors.New("server: empty batch")
	}
	var body strings.Builder
	for _, u := range ups {
		body.WriteString(u.String())
		body.WriteByte('\n')
	}
	line, err := c.do(fmt.Sprintf("BATCH %d", len(ups)), []byte(body.String()))
	if err != nil {
		return BatchAck{}, err
	}
	return parseBatchAck(line)
}

// BatchBinary applies updates through the binary batch frame — the same
// record encoding the write-ahead log uses.
func (c *Client) BatchBinary(ups []turboflux.Update) (BatchAck, error) {
	if len(ups) == 0 {
		return BatchAck{}, errors.New("server: empty batch")
	}
	var body []byte
	for _, u := range ups {
		var err error
		if body, err = stream.AppendBinary(body, u); err != nil {
			return BatchAck{}, err
		}
	}
	line, err := c.do(fmt.Sprintf("BATCHB %d", len(body)), body)
	if err != nil {
		return BatchAck{}, err
	}
	return parseBatchAck(line)
}

func parseBatchAck(line string) (BatchAck, error) {
	fields := strings.Fields(line) // "OK <firstSeq> <applied> <total>"
	if len(fields) != 4 {
		return BatchAck{}, fmt.Errorf("server: bad batch ack %q", line)
	}
	first, err1 := strconv.ParseUint(fields[1], 10, 64)
	applied, err2 := strconv.Atoi(fields[2])
	total, err3 := strconv.ParseInt(fields[3], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return BatchAck{}, fmt.Errorf("server: bad batch ack %q", line)
	}
	return BatchAck{FirstSeq: first, Applied: applied, Total: total}, nil
}

// Subscribe starts streaming the query's matches to Events. It returns
// the server sequence number the subscription starts after: matches of
// later updates are delivered, earlier ones are not.
func (c *Client) Subscribe(name string) (uint64, error) {
	line, err := c.do("SUBSCRIBE "+name, nil)
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return 0, fmt.Errorf("server: bad SUBSCRIBE reply %q", line)
	}
	seq, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("server: bad SUBSCRIBE reply %q", line)
	}
	return seq, nil
}

// Unsubscribe stops streaming the query's matches. The server's reply
// follows every line of the stream it ends, so once Unsubscribe returns,
// every push of the subscription has been read (handed to OnPush, or
// queued on Events) and none comes later.
func (c *Client) Unsubscribe(name string) error {
	_, err := c.do("UNSUBSCRIBE "+name, nil)
	return err
}

// Stats returns the STATS payload (see the package comment).
func (c *Client) Stats() (StatsPayload, error) { return c.dataLines("STATS") }

// ShardStats returns the per-shard liveness and lag lines from a
// coordinator (a plain server rejects the request).
func (c *Client) ShardStats() (StatsPayload, error) { return c.dataLines("SHARDSTATS") }

// dataLines performs one "+DATA <n>" framed exchange and parses its n
// payload lines.
func (c *Client) dataLines(cmd string) (StatsPayload, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inflight.Add(1) // left raised while payload lines may still come
	deadline := c.startExchange()
	if _, err := c.bw.WriteString(cmd + "\n"); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	head, err := c.recv(deadline)
	if err != nil {
		c.inflight.Add(-1) // an -ERR reply is one line, or the connection is gone
		return nil, err
	}
	fields := strings.Fields(head) // "DATA <n>"
	if len(fields) != 2 || fields[0] != "DATA" {
		return nil, fmt.Errorf("server: bad %s reply %q", cmd, head)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("server: bad %s reply %q", cmd, head)
	}
	lines := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l, err := c.recvLine(deadline)
		if err != nil {
			return nil, err
		}
		lines = append(lines, l)
	}
	c.inflight.Add(-1)
	return ParseStats(lines), nil
}

// Promote flips a follower server into leader mode: its replication link
// stops, its WAL is sealed, and it accepts writes from here on.
func (c *Client) Promote() error {
	_, err := c.do("PROMOTE", nil)
	return err
}

// Quit sends a clean goodbye and closes the connection.
func (c *Client) Quit() error {
	_, err := c.do("QUIT", nil)
	cerr := c.Close()
	if err != nil {
		return err
	}
	return cerr
}
