package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"turboflux/internal/graph"
)

// The text decoders — Decode, DecodeWindows, ParseLine, ParseRecord — share
// one parser, generic over the line's type so that a file is parsed in its
// read buffer and a wire request in its string, neither copied. It accepts
// and rejects exactly the lines strings.Fields and strconv.ParseUint did,
// with the same error text, and allocates only on the error path and for
// vertex labels.

// maxLine bounds one text line, its newline included.
const maxLine = 1 << 20

// readBuffer is DecodeWindows' read buffer; a longer line is gathered in
// a buffer of its own, up to maxLine.
const readBuffer = 64 << 10

// textWindow is how many records Decode and ApplyText decode before
// handing them on.
const textWindow = 4096

var errLineTooLong = fmt.Errorf("line longer than %d bytes with its newline", maxLine)

// LineError is the malformed line that stopped DecodeWindows.
type LineError struct {
	Line int
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("stream: line %d: %v", e.Line, e.Err) }

func (e *LineError) Unwrap() error { return e.Err }

// DecodeWindows reads the text format from r and hands fn the records in
// order, in windows of at most size records; comments and blank lines are
// skipped and not counted. Nothing is allocated per record: a line is
// parsed where it lies in the read buffer, and both the window and the
// vertex label slices in it are reused once fn returns, so fn must copy
// what it keeps (graph.Graph copies a label set when it interns one).
//
// Decoding stops at the first malformed line, returning "stream: line N:
// …" without handing over the records before it in its window, and at the
// first error from fn, which it returns as is.
func DecodeWindows(r io.Reader, size int, fn func(window []Update) error) error {
	return decodeWindows(r, size, false, fn)
}

// LoadWindows is DecodeWindows for a history about to be applied to a
// graph: a record naming a vertex ID past graph.MaxVertexID is a malformed
// line too ("stream: line N: …"), refused before fn sees its window.
func LoadWindows(r io.Reader, size int, fn func(window []Update) error) error {
	return decodeWindows(r, size, true, fn)
}

func decodeWindows(r io.Reader, size int, checkIDs bool, fn func(window []Update) error) error {
	size = max(size, 1)
	br := bufio.NewReaderSize(r, readBuffer)
	window := make([]Update, 0, size)
	var labels []graph.Label // scratch behind the window's vertex labels
	var long []byte          // a line longer than the read buffer
	for lineNo := 1; ; lineNo++ {
		line, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for rerr == bufio.ErrBufferFull && len(long) < maxLine {
				line, rerr = br.ReadSlice('\n')
				long = append(long, line...)
			}
			// maxLine bytes fit only when the last of them is the newline.
			if line = long; len(line) > maxLine || len(line) == maxLine && line[maxLine-1] != '\n' {
				return &LineError{lineNo, errLineTooLong}
			}
		}
		if f := splitFields(line); f.n > 0 && line[f.at[0].lo] != '#' {
			u, more, err := parseFields(line, f, labels)
			if err == nil && checkIDs {
				err = CheckIDs(u)
			}
			if err != nil {
				return &LineError{lineNo, err}
			}
			window, labels = append(window, u), more
			if len(window) == size {
				if err := fn(window); err != nil {
					return err
				}
				window, labels = window[:0], labels[:0]
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	if len(window) == 0 {
		return nil
	}
	return fn(window)
}

// Decode reads updates in the text format until EOF.
func Decode(r io.Reader) ([]Update, error) {
	var ups []Update
	err := DecodeWindows(r, textWindow, func(window []Update) error {
		for _, u := range window {
			u.Labels = slices.Clone(u.Labels)
			ups = append(ups, u)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ups, nil
}

// ApplyText applies the text-format stream read from r to g, holding one
// window of it at a time. It stops at the first malformed line, as
// LoadWindows does, with the windows before it applied.
func ApplyText(g *graph.Graph, r io.Reader) error {
	return LoadWindows(r, textWindow, func(window []Update) error {
		ApplyAll(g, window)
		return nil
	})
}

// ParseLine parses one text-format record ("i 1 5 2", "v 3 1,7") without
// the surrounding stream framing. Blank lines and comments are errors here;
// Decode filters them before calling in. Text BATCH bodies on the wire are
// parsed with it.
func ParseLine(line string) (Update, error) {
	f := splitFields(line)
	if f.n == 0 {
		return Update{}, errors.New("stream: empty record")
	}
	u, _, err := parseFields(line, f, nil)
	return u, err
}

// ParseRecord is ParseLine for a line that need not hold a record, such as
// a server request: ok reports whether its first field is a record op (i,
// d or v). When it is not, nothing is parsed and err is nil.
func ParseRecord(line string) (u Update, ok bool, err error) {
	f := splitFields(line)
	if f.n == 0 || !isRecordOp(fieldAt(line, f.at[0])) {
		return Update{}, false, nil
	}
	u, _, err = parseFields(line, f, nil)
	return u, true, err
}

// text is what the parser reads: a line in a read buffer or in a string.
type text interface{ ~string | ~[]byte }

// maxFields is one more field than the longest record has: splitting stops
// there, which is enough to reject the record.
const maxFields = 5

type span struct{ lo, hi int }

// fields locates a line's whitespace-separated fields, the ones
// strings.Fields returns, up to maxFields of them.
type fields struct {
	n  int
	at [maxFields]span
}

func splitFields[T text](s T) (f fields) {
	for i := 0; f.n < maxFields; {
		for i < len(s) {
			if c := s[i]; c < utf8.RuneSelf {
				if !asciiSpace[c] {
					break
				}
				i++
			} else if w := wideSpaceAt(s, i); w > 0 {
				i += w
			} else {
				break
			}
		}
		if i == len(s) {
			break
		}
		lo := i
		for i < len(s) {
			if c := s[i]; c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
			} else if wideSpaceAt(s, i) > 0 {
				break
			}
			i++
		}
		f.at[f.n] = span{lo, i}
		f.n++
	}
	return f
}

func fieldAt[T text](s T, sp span) T { return s[sp.lo:sp.hi] }

func isRecordOp[T text](op T) bool {
	return len(op) == 1 && (op[0] == 'i' || op[0] == 'd' || op[0] == 'v')
}

// asciiSpace is unicode.IsSpace below utf8.RuneSelf.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// wideSpaceAt returns the length of the white space rune (unicode.IsSpace)
// at s[i], a byte of utf8.RuneSelf or above, or 0. It matches the UTF-8
// encodings of the non-ASCII white space runes: U+0085, U+00A0, U+1680,
// U+2000–U+200A, U+2028, U+2029, U+202F, U+205F and U+3000. Matching bytes
// finds exactly the runes strings.Fields decodes: their lead bytes are
// never UTF-8 continuation bytes, so a match cannot start inside a valid
// rune, and an invalid byte is a one-byte non-space rune to strings.Fields
// and to the byte-wise scan alike.
func wideSpaceAt[T text](s T, i int) int {
	rest := len(s) - i
	switch s[i] {
	case 0xC2:
		if rest >= 2 && (s[i+1] == 0x85 || s[i+1] == 0xA0) {
			return 2
		}
	case 0xE1:
		if rest >= 3 && s[i+1] == 0x9A && s[i+2] == 0x80 {
			return 3
		}
	case 0xE2:
		if rest >= 3 {
			b1, b2 := s[i+1], s[i+2]
			if b1 == 0x80 && (0x80 <= b2 && b2 <= 0x8A || b2 == 0xA8 || b2 == 0xA9 || b2 == 0xAF) ||
				b1 == 0x81 && b2 == 0x9F {
				return 3
			}
		}
	case 0xE3:
		if rest >= 3 && s[i+1] == 0x80 && s[i+2] == 0x80 {
			return 3
		}
	}
	return 0
}

// parseFields parses the record whose fields f locates in line. A vertex
// record's labels are appended to labels and its Labels alias that tail;
// the extended slice is returned.
func parseFields[T text](line T, f fields, labels []graph.Label) (Update, []graph.Label, error) {
	op := fieldAt(line, f.at[0])
	if !isRecordOp(op) {
		return Update{}, labels, fmt.Errorf("unknown op %q", string(op))
	}
	if op[0] == 'v' {
		if f.n < 2 || f.n > 3 {
			return Update{}, labels, fmt.Errorf("bad vertex record %q", joinFields(line))
		}
		id, err := parseVertex(fieldAt(line, f.at[1]))
		if err != nil {
			return Update{}, labels, err
		}
		u := Update{Op: OpVertex, Vertex: id}
		if f.n == 3 {
			start := len(labels)
			for ls := fieldAt(line, f.at[2]); ; {
				j := 0
				for j < len(ls) && ls[j] != ',' {
					j++
				}
				l, err := parseLabel(ls[:j])
				if err != nil {
					return Update{}, labels, err
				}
				labels = append(labels, l)
				if j == len(ls) {
					break
				}
				ls = ls[j+1:]
			}
			u.Labels = labels[start:len(labels):len(labels)]
		}
		return u, labels, nil
	}
	if f.n != 4 {
		return Update{}, labels, fmt.Errorf("bad edge record %q", joinFields(line))
	}
	from, err := parseVertex(fieldAt(line, f.at[1]))
	if err != nil {
		return Update{}, labels, err
	}
	l, err := parseLabel(fieldAt(line, f.at[2]))
	if err != nil {
		return Update{}, labels, err
	}
	to, err := parseVertex(fieldAt(line, f.at[3]))
	if err != nil {
		return Update{}, labels, err
	}
	u := Update{Op: OpInsert, Edge: graph.Edge{From: from, Label: l, To: to}}
	if op[0] == 'd' {
		u.Op = OpDelete
	}
	return u, labels, nil
}

func parseVertex[T text](s T) (graph.VertexID, error) {
	n, ok := parseDecimal(s, 1<<32-1)
	if !ok {
		return 0, fmt.Errorf("bad vertex id %q: %w", string(s), parseUintErr(s, 32))
	}
	return graph.VertexID(n), nil
}

func parseLabel[T text](s T) (graph.Label, error) {
	n, ok := parseDecimal(s, 1<<16-1)
	if !ok {
		return 0, fmt.Errorf("bad label %q: %w", string(s), parseUintErr(s, 16))
	}
	return graph.Label(n), nil
}

// parseDecimal accepts what strconv.ParseUint(s, 10, bits) accepts for
// limit = 1<<bits - 1: one or more ASCII digits whose value is at most
// limit.
func parseDecimal[T text](s T, limit uint64) (uint64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		if n = n*10 + uint64(d); n > limit {
			return 0, false
		}
	}
	return n, true
}

// parseUintErr is strconv.ParseUint's own error for a field parseDecimal
// rejected: the error path keeps strconv's wording.
func parseUintErr[T text](s T, bits int) error {
	_, err := strconv.ParseUint(string(s), 10, bits)
	return err
}

// joinFields renders a rejected record's fields as its error quotes them.
func joinFields[T text](line T) string {
	return strings.Join(strings.Fields(string(line)), " ")
}
