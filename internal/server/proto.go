// Package server implements the TurboFlux network serving subsystem: a
// concurrent TCP server that lets many clients drive one shared
// MultiEngine — registering continuous queries over the wire, streaming
// graph updates, and subscribing to per-query match streams — plus the Go
// client used by the integration tests.
//
// # Wire protocol
//
// The protocol is line-oriented text (LF-terminated, CR tolerated), with
// one binary escape for bulk ingest. Client requests:
//
//	PING                          liveness probe
//	QUIT                          close the connection
//	REGISTER <name> <pattern>     register a continuous query (qlang pattern)
//	UNREGISTER <name>             remove a query
//	QUERIES                       list registered query names
//	LABEL vertex|edge <name>      intern a label name, returning its id
//	SUBSCRIBE <name>              stream this query's matches to this conn
//	UNSUBSCRIBE <name>            stop streaming
//	STATS                         engine, queue and lag counters
//	i <from> <label> <to>         apply one edge insertion (stream text format)
//	d <from> <label> <to>         apply one edge deletion
//	v <id> [<label>,...]          declare a vertex
//	BATCH <n>                     followed by n stream-text records
//	BATCHB <bytes>                followed by <bytes> of binary-codec records
//	REPLICATE <lsn>               become a replication stream: the server
//	                              ships a snapshot and/or WAL tail for
//	                              catch-up past <lsn>, then live frames
//	                              (durable mode only; see internal/replica
//	                              for the push/ack framing)
//	PROMOTE                       flip a follower to leader: its link to
//	                              the old leader stops, its WAL is sealed
//	                              and synced, and writes are accepted
//	SHARDSTATS                    per-shard liveness/lag counters; answered
//	                              by a coordinator (internal/shard) with the
//	                              STATS framing, rejected by a plain server
//
// After an accepted REPLICATE the connection is in replication mode: the
// server pushes *RSNAP/*RFRAMES/*RPING messages and the only requests
// accepted are "RACK <appliedLSN>" acknowledgments and QUIT.
//
// Update records and BATCH bodies reuse the internal/stream text codec;
// BATCHB bodies reuse its binary codec, so a WAL segment payload can be
// replayed over the wire unchanged.
//
// Server responses start with '+' (success) or '-' (error); asynchronous
// pushes start with '*' so clients can demultiplex them from command
// replies on the same connection:
//
//	+OK [fields...]               command reply
//	+DATA <n>                     followed by n payload lines (STATS)
//	-ERR <message>                command failed
//	*EVENT <query> <seq> <+|-> <v0> <v1> ...   one match (mapping in
//	                              query-vertex order; seq is the server's
//	                              global update sequence number)
//	*EVICTED <query>              this subscription was dropped by the
//	                              slow-consumer policy
//
// Pushes reach a connection in emission order: one total order per
// connection across all its subscriptions — update by update, and within
// an update query by query in registration order — with *EVICTED in-band,
// after the last event the subscription accepted.
//
// Update acks carry the assigned sequence number and per-query match
// counts ("+OK <seq> <total> [name=n ...]"), so a client fleet can
// reconstruct the server's total update order and replay it offline —
// the determinism contract the end-to-end tests check.
package server

import (
	"fmt"
	"strconv"
	"strings"

	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

// Kind identifies a parsed request.
type Kind uint8

const (
	// KindNone is the zero Kind; ParseRequest never returns it without an
	// error.
	KindNone Kind = iota
	// KindPing is the PING liveness probe.
	KindPing
	// KindQuit closes the connection.
	KindQuit
	// KindRegister registers a query from a pattern.
	KindRegister
	// KindUnregister removes a query.
	KindUnregister
	// KindQueries lists registered queries.
	KindQueries
	// KindLabel interns a label name.
	KindLabel
	// KindSubscribe subscribes the connection to a query's matches.
	KindSubscribe
	// KindUnsubscribe removes a subscription.
	KindUnsubscribe
	// KindStats requests server and engine counters.
	KindStats
	// KindUpdate applies a single stream update.
	KindUpdate
	// KindBatch applies Count stream-text records that follow.
	KindBatch
	// KindBatchBin applies Count bytes of binary records that follow.
	KindBatchBin
	// KindReplicate switches the connection into a replication stream
	// serving catch-up and live WAL frames past LSN.
	KindReplicate
	// KindPromote flips a follower into leader mode.
	KindPromote
	// KindShardStats requests per-shard liveness and lag counters; only a
	// coordinator (internal/shard) answers it, a plain server rejects it.
	KindShardStats
)

// Limits on request framing. Requests outside them are rejected before any
// allocation proportional to the claimed size.
const (
	// MaxLineBytes bounds one request or record line.
	MaxLineBytes = 64 * 1024
	// MaxBatchRecords bounds the record count of a BATCH.
	MaxBatchRecords = 100_000
	// MaxBatchBytes bounds the payload of a BATCHB.
	MaxBatchBytes = 4 << 20
	// maxNameLen bounds query and label names.
	maxNameLen = 128
)

// Request is one parsed client request. Batch bodies are framed separately
// by the connection loop; ParseRequest only validates the header.
type Request struct {
	Kind   Kind
	Name   string        // query name; "vertex"/"edge" for KindLabel
	Arg    string        // pattern (REGISTER), label name (LABEL)
	Update stream.Update // KindUpdate
	Count  int           // record count (BATCH) / byte count (BATCHB)
	LSN    uint64        // follower applied LSN (REPLICATE)
}

// ParseRequest parses one request line (without trailing newline).
// Malformed input of any shape must yield an error, never a panic — the
// fuzz target holds it to that.
func ParseRequest(line string) (Request, error) {
	line = strings.TrimSuffix(line, "\r")
	// Updates, the bulk of requests, go straight to the stream parser,
	// which splits the line in place; only commands pay for Fields.
	if u, ok, err := stream.ParseRecord(line); ok {
		if err == nil {
			err = stream.CheckIDs(u) // refused here, it is never journaled
		}
		if err != nil {
			return Request{}, err
		}
		return Request{Kind: KindUpdate, Update: u}, nil
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Request{}, fmt.Errorf("server: empty request")
	}
	switch fields[0] {
	case "PING":
		return reqNoArgs(KindPing, fields)
	case "QUIT":
		return reqNoArgs(KindQuit, fields)
	case "QUERIES":
		return reqNoArgs(KindQueries, fields)
	case "STATS":
		return reqNoArgs(KindStats, fields)
	case "REGISTER":
		if len(fields) < 3 {
			return Request{}, fmt.Errorf("server: REGISTER needs a name and a pattern")
		}
		if err := checkName(fields[1]); err != nil {
			return Request{}, err
		}
		// The pattern is everything after the name (qlang is
		// whitespace-insensitive, so trimming is enough).
		return Request{Kind: KindRegister, Name: fields[1], Arg: afterFields(line, 2)}, nil
	case "UNREGISTER":
		return reqOneName(KindUnregister, fields)
	case "SUBSCRIBE":
		return reqOneName(KindSubscribe, fields)
	case "UNSUBSCRIBE":
		return reqOneName(KindUnsubscribe, fields)
	case "LABEL":
		if len(fields) != 3 {
			return Request{}, fmt.Errorf("server: LABEL needs a kind (vertex|edge) and a name")
		}
		if fields[1] != "vertex" && fields[1] != "edge" {
			return Request{}, fmt.Errorf("server: LABEL kind must be vertex or edge, got %q", fields[1])
		}
		if len(fields[2]) > maxNameLen {
			return Request{}, fmt.Errorf("server: label name longer than %d bytes", maxNameLen)
		}
		return Request{Kind: KindLabel, Name: fields[1], Arg: fields[2]}, nil
	case "BATCH":
		n, err := parseCount(fields, MaxBatchRecords)
		if err != nil {
			return Request{}, err
		}
		return Request{Kind: KindBatch, Count: n}, nil
	case "BATCHB":
		n, err := parseCount(fields, MaxBatchBytes)
		if err != nil {
			return Request{}, err
		}
		return Request{Kind: KindBatchBin, Count: n}, nil
	case "REPLICATE":
		if len(fields) != 2 {
			return Request{}, fmt.Errorf("server: REPLICATE needs exactly one applied LSN")
		}
		lsn, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return Request{}, fmt.Errorf("server: bad REPLICATE LSN %q", clip(fields[1]))
		}
		return Request{Kind: KindReplicate, LSN: lsn}, nil
	case "PROMOTE":
		return reqNoArgs(KindPromote, fields)
	case "SHARDSTATS":
		return reqNoArgs(KindShardStats, fields)
	default:
		return Request{}, fmt.Errorf("server: unknown command %q", clip(fields[0]))
	}
}

func reqNoArgs(k Kind, fields []string) (Request, error) {
	if len(fields) != 1 {
		return Request{}, fmt.Errorf("server: %s takes no arguments", fields[0])
	}
	return Request{Kind: k}, nil
}

func reqOneName(k Kind, fields []string) (Request, error) {
	if len(fields) != 2 {
		return Request{}, fmt.Errorf("server: %s needs exactly one query name", fields[0])
	}
	if err := checkName(fields[1]); err != nil {
		return Request{}, err
	}
	return Request{Kind: k, Name: fields[1]}, nil
}

func parseCount(fields []string, max int) (int, error) {
	if len(fields) != 2 {
		return 0, fmt.Errorf("server: %s needs exactly one count", fields[0])
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("server: bad %s count %q", fields[0], clip(fields[1]))
	}
	if n > max {
		return 0, fmt.Errorf("server: %s count %d exceeds limit %d", fields[0], n, max)
	}
	return n, nil
}

// checkName validates a query name: 1..maxNameLen of [A-Za-z0-9._-].
func checkName(name string) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("server: query name must be 1..%d characters", maxNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("server: query name %q contains %q (allowed: letters, digits, '.', '_', '-')", clip(name), c)
		}
	}
	return nil
}

// afterFields returns the remainder of line after skipping n
// whitespace-delimited fields, trimmed of surrounding whitespace.
func afterFields(line string, n int) string {
	rest := line
	for i := 0; i < n; i++ {
		rest = strings.TrimLeft(rest, " \t")
		j := strings.IndexAny(rest, " \t")
		if j < 0 {
			return ""
		}
		rest = rest[j:]
	}
	return strings.TrimSpace(rest)
}

// clip bounds attacker-controlled text quoted into error messages.
func clip(s string) string {
	const n = 64
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// appendEventLine renders one match event as its wire line (without the
// trailing newline) into dst.
func appendEventLine(dst []byte, query string, seq uint64, positive bool, mapping []graph.VertexID) []byte {
	return appendEventBody(appendEventHead(dst, query, seq), positive, mapping)
}

// appendEventHead renders "*EVENT <query> <seq> ", the part of the line
// all matches of one update and query share; the actor renders it once
// per update and query.
func appendEventHead(dst []byte, query string, seq uint64) []byte {
	dst = append(dst, "*EVENT "...)
	dst = append(dst, query...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, seq, 10)
	return append(dst, ' ')
}

// appendEventBody renders the sign and the mapping after an event head.
// This is the actor's per-match formatting, append-based so every match
// goes into one scratch buffer instead of through fmt.
func appendEventBody(dst []byte, positive bool, mapping []graph.VertexID) []byte {
	if positive {
		dst = append(dst, '+')
	} else {
		dst = append(dst, '-')
	}
	for _, v := range mapping {
		dst = append(dst, ' ')
		dst = appendVertex(dst, v)
	}
	return dst
}

// appendVertex appends v in decimal: strconv.AppendUint's job without its
// base dispatch, which costs a fifth of the actor's per-match time — vertex
// ids are most of an event line.
func appendVertex(dst []byte, v graph.VertexID) []byte {
	var b [10]byte
	i := len(b) - 1
	for ; v >= 10; v /= 10 {
		b[i] = byte('0' + v%10)
		i--
	}
	b[i] = byte('0' + v)
	return append(dst, b[i:]...)
}
