// Package wire is the benchmark's own client for the TurboFlux line
// protocol (see internal/server/proto.go for the specification). It is
// written against the bytes on the socket — stdlib net plus the
// internal/stream record codecs — and deliberately not against the Go
// client in internal/server, so the benchmark pins the protocol and keeps
// measuring the same thing when that client is rewritten.
package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"turboflux/internal/stream"
)

// Conn is one protocol connection. It is not safe for concurrent use,
// except that one goroutine may write (Send*/Flush) while another reads
// (ReadLine), which is how the pipelined phases drive it.
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// Dial connects to a server or coordinator.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return &Conn{
		nc: nc,
		br: bufio.NewReaderSize(nc, 256<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}, nil
}

// Close closes the socket.
func (c *Conn) Close() error { return c.nc.Close() }

// SetReadDeadline bounds the next reads; the zero time removes the bound.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// Write buffers raw protocol bytes; Flush puts them on the socket.
func (c *Conn) Write(b []byte) error {
	_, err := c.bw.Write(b)
	return err
}

// Flush writes everything buffered to the socket.
func (c *Conn) Flush() error { return c.bw.Flush() }

// ReadLine returns the next line without its terminator. The slice is
// only valid until the next read.
func (c *Conn) ReadLine() ([]byte, error) {
	b, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	b = b[:len(b)-1]
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b, nil
}

// Do sends one request line and returns its reply line ("+OK ..."). A
// "-ERR" reply is returned as an error. Asynchronous pushes ('*' lines)
// arriving before the reply are skipped; Do is for the set-up and scrape
// exchanges, not for connections with events in flight that matter.
func (c *Conn) Do(line string) (string, error) {
	if err := c.Write(append([]byte(line), '\n')); err != nil {
		return "", err
	}
	if err := c.Flush(); err != nil {
		return "", err
	}
	for {
		b, err := c.ReadLine()
		if err != nil {
			return "", fmt.Errorf("wire: %s: %w", firstWord(line), err)
		}
		switch {
		case len(b) > 0 && b[0] == '*':
			continue
		case bytes.HasPrefix(b, []byte("-ERR")):
			return "", fmt.Errorf("wire: %s: %s", firstWord(line), b)
		default:
			return string(b), nil
		}
	}
}

// Data sends a request answered with the "+DATA <n>" framing (STATS,
// SHARDSTATS) and returns the n payload lines.
func (c *Conn) Data(verb string) ([]string, error) {
	head, err := c.Do(verb)
	if err != nil {
		return nil, err
	}
	f := strings.Fields(head)
	if len(f) != 2 || f[0] != "+DATA" {
		return nil, fmt.Errorf("wire: %s: unexpected reply %q", verb, head)
	}
	n, err := strconv.Atoi(f[1])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("wire: %s: bad line count %q", verb, f[1])
	}
	lines := make([]string, 0, n)
	for len(lines) < n {
		b, err := c.ReadLine()
		if err != nil {
			return nil, fmt.Errorf("wire: %s payload: %w", verb, err)
		}
		if len(b) > 0 && b[0] == '*' {
			continue
		}
		lines = append(lines, string(b))
	}
	return lines, nil
}

func firstWord(s string) string {
	if i := strings.IndexByte(s, ' '); i > 0 {
		return s[:i]
	}
	return s
}

// Ack is an update acknowledgment. A single update is acked as
// "+OK <seq> <total> [name=n ...]", a batch as "+OK <firstSeq> <n>
// <total>"; N is 1 for the former.
type Ack struct {
	Seq   uint64
	N     int
	Total int64
}

// ErrRefused marks a "-ERR" acknowledgment.
var ErrRefused = errors.New("wire: update refused")

// ParseAck parses a single-update acknowledgment line.
func ParseAck(line []byte) (Ack, error) {
	f, err := okFields(line, 2)
	if err != nil {
		return Ack{}, err
	}
	return Ack{Seq: f[0], N: 1, Total: int64(f[1])}, nil
}

// ParseBatchAck parses a BATCH/BATCHB acknowledgment line.
func ParseBatchAck(line []byte) (Ack, error) {
	f, err := okFields(line, 3)
	if err != nil {
		return Ack{}, err
	}
	return Ack{Seq: f[0], N: int(f[1]), Total: int64(f[2])}, nil
}

// ParseSubscribed parses a SUBSCRIBE reply, "+OK <seq>": the sequence
// number after which the subscription's events start.
func ParseSubscribed(line string) (uint64, error) {
	f, err := okFields([]byte(line), 1)
	return f[0], err
}

// okFields parses the first n unsigned fields after "+OK".
func okFields(line []byte, n int) ([3]uint64, error) {
	var out [3]uint64
	if bytes.HasPrefix(line, []byte("-ERR")) {
		return out, fmt.Errorf("%w: %s", ErrRefused, line)
	}
	rest, ok := bytes.CutPrefix(line, []byte("+OK "))
	if !ok {
		return out, fmt.Errorf("wire: unexpected acknowledgment %q", line)
	}
	for i := 0; i < n; i++ {
		var tok []byte
		tok, rest, _ = bytes.Cut(rest, []byte(" "))
		v, err := parseUint(tok)
		if err != nil {
			return out, fmt.Errorf("wire: bad acknowledgment %q", line)
		}
		out[i] = v
	}
	return out, nil
}

// Event is one "*EVENT <query> <seq> <+|-> <v0> ..." push. Query aliases
// the line buffer.
type Event struct {
	Query    []byte
	Seq      uint64
	Positive bool
}

// ParseEvent parses an event line; ok is false for any other line
// (including *EVICTED, which the caller treats as a failure).
func ParseEvent(line []byte) (ev Event, ok bool) {
	rest, found := bytes.CutPrefix(line, []byte("*EVENT "))
	if !found {
		return Event{}, false
	}
	ev.Query, rest, found = bytes.Cut(rest, []byte(" "))
	if !found {
		return Event{}, false
	}
	seqTok, rest, found := bytes.Cut(rest, []byte(" "))
	if !found || len(rest) == 0 {
		return Event{}, false
	}
	seq, err := parseUint(seqTok)
	if err != nil {
		return Event{}, false
	}
	ev.Seq = seq
	ev.Positive = rest[0] == '+'
	return ev, true
}

func parseUint(b []byte) (uint64, error) {
	if len(b) == 0 || len(b) > 19 {
		return 0, errors.New("wire: bad number")
	}
	var v uint64
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, errors.New("wire: bad number")
		}
		v = v*10 + uint64(ch-'0')
	}
	return v, nil
}

// UpdateLines renders ups in the stream text codec, one request line per
// update, and returns the bytes plus each line's end offset.
func UpdateLines(ups []stream.Update) ([]byte, []int, error) {
	var buf bytes.Buffer
	ends := make([]int, len(ups))
	for i := range ups {
		if err := stream.Encode(&buf, ups[i:i+1]); err != nil {
			return nil, nil, err
		}
		ends[i] = buf.Len()
	}
	return buf.Bytes(), ends, nil
}

// Framer builds "BATCHB <bytes>" frames carrying updates in the stream
// binary codec, reusing its buffers from frame to frame.
type Framer struct {
	body, frame []byte
}

// BatchB returns the frame for ups, valid until the next call.
func (f *Framer) BatchB(ups []stream.Update) ([]byte, error) {
	f.body = f.body[:0]
	for _, u := range ups {
		var err error
		if f.body, err = stream.AppendBinary(f.body, u); err != nil {
			return nil, err
		}
	}
	f.frame = append(f.frame[:0], "BATCHB "...)
	f.frame = strconv.AppendInt(f.frame, int64(len(f.body)), 10)
	f.frame = append(f.frame, '\n')
	f.frame = append(f.frame, f.body...)
	return f.frame, nil
}

// Line is one parsed "kind [name] key=value ..." payload line of STATS or
// SHARDSTATS.
type Line struct {
	Kind string
	Name string // first bare field after the kind ("query q03 ...", "shard 0 ...")
	KV   map[string]string
}

// ParseLines parses STATS-framed payload lines.
func ParseLines(lines []string) []Line {
	out := make([]Line, 0, len(lines))
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 0 {
			continue
		}
		pl := Line{Kind: f[0], KV: map[string]string{}}
		for _, tok := range f[1:] {
			if k, v, ok := strings.Cut(tok, "="); ok {
				pl.KV[k] = v
			} else if pl.Name == "" {
				pl.Name = tok
			}
		}
		out = append(out, pl)
	}
	return out
}

// Num returns a numeric field of the line; ok is false when the key is
// absent or its value is not a number.
func (l Line) Num(key string) (v float64, ok bool) {
	v, err := strconv.ParseFloat(l.KV[key], 64)
	return v, err == nil
}
