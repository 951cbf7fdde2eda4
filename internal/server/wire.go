package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"

	"turboflux/internal/stream"
)

// The frame buffers a Wire keeps for its next BATCH/BATCHB frame: a
// binary body of up to frameKeepBytes and a run of up to frameKeepRecords
// updates. A larger frame's buffers are dropped once it has been applied,
// so one MaxBatchBytes frame cannot pin memory for the connection's
// lifetime.
const (
	frameKeepBytes   = 64 << 10
	frameKeepRecords = 4096
)

// Wire is the line-protocol framing layer under every Conn: request framing
// on the read side, owned by the connection's reader goroutine, and on the
// write side whole lines serialized by one mutex with a sticky first
// error, so replies and pushes never interleave mid-line.
type Wire struct {
	br   *bufio.Reader
	body []byte          // the last binary frame's body, reused by the next
	ups  []stream.Update // the last frame's run, reused by the next

	mu  sync.Mutex
	bw  *bufio.Writer
	err error // sticky first write error
}

// NewWire wraps one accepted connection.
func NewWire(nc net.Conn) *Wire {
	return &Wire{br: bufio.NewReaderSize(nc, MaxLineBytes), bw: bufio.NewWriterSize(nc, 32*1024)}
}

// Serve runs the request loop until the peer disconnects, sends an
// unrecoverable frame, or dispatch returns false (QUIT, write failure,
// shutdown). Protocol errors are per-request: the connection survives them.
func (w *Wire) Serve(dispatch func(Request) bool) {
	for {
		line, err := w.ReadLine()
		if err != nil {
			return
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		req, err := ParseRequest(line)
		if err != nil {
			if w.WriteErr(err) != nil {
				return
			}
			continue
		}
		if !dispatch(req) {
			return
		}
	}
}

// ReadLine reads one LF-terminated line (LF stripped). Lines longer than
// MaxLineBytes are a framing error: the stream cannot be resynchronized,
// so the connection drops.
func (w *Wire) ReadLine() (string, error) {
	b, err := w.readSlice()
	return string(b), err
}

// readSlice is ReadLine without the copy: the line aliases the read
// buffer and is valid until the next read.
func (w *Wire) readSlice() ([]byte, error) {
	b, err := w.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		w.WriteErr(fmt.Errorf("server: request line exceeds %d bytes", MaxLineBytes)) //tf:unchecked-ok dropping the conn either way
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	return b[:len(b)-1], nil
}

// ReadBatch reads the body of a BATCH (Count stream-text records) or
// BATCHB (Count bytes of binary-codec records) request. A framing (I/O)
// error is fatal; a parse error is reported to the client after the whole
// body has been consumed, so the protocol stays in sync. Nothing is
// applied unless every record parses and names no vertex ID past
// graph.MaxVertexID.
//
// The run and the body it was decoded from are the Wire's, reused by the
// next frame: ups is valid until the next ReadBatch, which is all
// Backend.Apply needs (it reads its run only until it returns).
func (w *Wire) ReadBatch(req Request) (ups []stream.Update, framing, parse error) {
	if req.Kind == KindBatchBin {
		ups, framing, parse = w.readBatchBinary(req.Count)
	} else {
		ups, framing, parse = w.readBatchText(req.Count)
	}
	if cap(ups) <= frameKeepRecords && framing == nil && parse == nil {
		w.ups = ups
	}
	return ups, framing, parse
}

func (w *Wire) readBatchText(n int) (ups []stream.Update, framing, parse error) {
	ups = slices.Grow(w.ups[:0], n)
	for i := 0; i < n; i++ {
		line, err := w.readSlice()
		if err != nil {
			return nil, err, nil
		}
		if parse != nil {
			continue // consume remaining body
		}
		u, err := stream.ParseLine(line) // a trailing CR is white space to it
		if err == nil {
			err = stream.CheckIDs(u)
		}
		if err != nil {
			parse = fmt.Errorf("server: batch record %d: %w", i+1, err)
			continue
		}
		ups = append(ups, u)
	}
	if parse != nil {
		return nil, nil, parse
	}
	return ups, nil, nil
}

func (w *Wire) readBatchBinary(n int) (ups []stream.Update, framing, parse error) {
	body := slices.Grow(w.body[:0], n)[:n]
	if cap(body) <= frameKeepBytes {
		w.body = body
	}
	if _, err := io.ReadFull(w.br, body); err != nil {
		return nil, err, nil
	}
	ups = w.ups[:0]
	for len(body) > 0 {
		u, used, err := stream.DecodeBinary(body)
		if err == nil {
			err = stream.CheckIDs(u)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("server: batch record %d: %w", len(ups)+1, err)
		}
		ups = append(ups, u)
		body = body[used:]
	}
	if len(ups) == 0 {
		return nil, nil, fmt.Errorf("server: empty binary batch")
	}
	return ups, nil, nil
}

// WriteLine writes one reply line and flushes.
func (w *Wire) WriteLine(line string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		_, w.err = w.bw.WriteString(line)
	}
	if w.err == nil {
		w.err = w.bw.WriteByte('\n')
	}
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}

// WriteFrame writes header and body (either may be empty) as one atomic
// wire unit: no other line can interleave between them. After the first
// error every write is a no-op returning it, so a writer facing a dead
// peer degrades to a fast drain.
func (w *Wire) WriteFrame(header, body []byte, flush bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		_, w.err = w.bw.Write(header)
	}
	if w.err == nil {
		_, w.err = w.bw.Write(body)
	}
	if w.err == nil && flush {
		w.err = w.bw.Flush()
	}
	return w.err
}

// WriteErr reports a request failure on one line.
func (w *Wire) WriteErr(err error) error {
	msg := strings.NewReplacer("\r", " ", "\n", " ").Replace(err.Error())
	return w.WriteLine("-ERR " + msg)
}

// WriteNames answers QUERIES: "+OK <n> <name>...".
func (w *Wire) WriteNames(names []string) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "+OK %d", len(names))
	for _, n := range names {
		sb.WriteByte(' ')
		sb.WriteString(n)
	}
	return w.WriteLine(sb.String())
}

// WriteData answers STATS and SHARDSTATS: "+DATA <n>", then n lines.
func (w *Wire) WriteData(lines []string) error {
	err := w.WriteLine(fmt.Sprintf("+DATA %d", len(lines)))
	for i := 0; err == nil && i < len(lines); i++ {
		err = w.WriteLine(lines[i])
	}
	return err
}

// WriteAck renders an update acknowledgment: sequence number, total match
// count, then per-query counts sorted by name for a deterministic wire
// image.
func (w *Wire) WriteAck(seq uint64, total int64, counts map[string]int64) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "+OK %d %d", seq, total)
	names := make([]string, 0, len(counts))
	//tf:unordered-ok keys are sorted before emission
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, " %s=%d", n, counts[n])
	}
	return w.WriteLine(sb.String())
}
