package stream

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"turboflux/internal/graph"
)

// The oracle is the text decoder as it stood before the byte parser:
// bufio.Scanner, strings.Fields and strconv.ParseUint. The byte parser must
// accept and reject exactly what it does, with the same error text, except
// that an over-long line now names its line.

func oracleDecode(r io.Reader) ([]Update, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var ups []Update
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		u, err := oracleParseFields(fields)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", lineNo, err)
		}
		ups = append(ups, u)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ups, nil
}

func oracleParseLine(line string) (Update, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Update{}, fmt.Errorf("stream: empty record")
	}
	return oracleParseFields(fields)
}

func oracleParseFields(fields []string) (Update, error) {
	switch fields[0] {
	case "v":
		if len(fields) < 2 || len(fields) > 3 {
			return Update{}, fmt.Errorf("bad vertex record %q", strings.Join(fields, " "))
		}
		id, err := oracleParseVertex(fields[1])
		if err != nil {
			return Update{}, err
		}
		u := Update{Op: OpVertex, Vertex: id}
		if len(fields) == 3 {
			for _, s := range strings.Split(fields[2], ",") {
				l, err := oracleParseLabel(s)
				if err != nil {
					return Update{}, err
				}
				u.Labels = append(u.Labels, l)
			}
		}
		return u, nil
	case "i", "d":
		if len(fields) != 4 {
			return Update{}, fmt.Errorf("bad edge record %q", strings.Join(fields, " "))
		}
		from, err := oracleParseVertex(fields[1])
		if err != nil {
			return Update{}, err
		}
		l, err := oracleParseLabel(fields[2])
		if err != nil {
			return Update{}, err
		}
		to, err := oracleParseVertex(fields[3])
		if err != nil {
			return Update{}, err
		}
		op := OpInsert
		if fields[0] == "d" {
			op = OpDelete
		}
		return Update{Op: op, Edge: graph.Edge{From: from, Label: l, To: to}}, nil
	default:
		return Update{}, fmt.Errorf("unknown op %q", fields[0])
	}
}

func oracleParseVertex(s string) (graph.VertexID, error) {
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad vertex id %q: %w", s, err)
	}
	return graph.VertexID(n), nil
}

func oracleParseLabel(s string) (graph.Label, error) {
	n, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bad label %q: %w", s, err)
	}
	return graph.Label(n), nil
}

// oracleErr is the error the byte parser must give where the oracle gives
// err: the same, except that the oracle's bare "token too long" becomes
// one naming the first line of maxLine bytes or more.
func oracleErr(src string, err error) string {
	if err == nil {
		return ""
	}
	if err != bufio.ErrTooLong {
		return err.Error()
	}
	for i, line := range strings.Split(src, "\n") {
		if len(line) >= maxLine {
			return fmt.Sprintf("stream: line %d: %v", i+1, errLineTooLong)
		}
	}
	panic("oracle reported a long line where there is none")
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// decodeWindowed collects DecodeWindows' records, copying them out of the
// reused window, and checks that every window but the last is full.
func decodeWindowed(t *testing.T, src string, size int) ([]Update, error) {
	var ups []Update
	short := false
	err := DecodeWindows(strings.NewReader(src), size, func(w []Update) error {
		if short || len(w) == 0 || len(w) > size {
			t.Fatalf("size %d: window of %d records after a short one: %v", size, len(w), short)
		}
		short = len(w) < size
		for _, u := range w {
			u.Labels = slices.Clone(u.Labels)
			ups = append(ups, u)
		}
		return nil
	})
	return ups, err
}

// FuzzDecodeWindows holds Decode, DecodeWindows (at window sizes 1, 3 and
// 4096), ParseLine and ParseRecord to the oracle record for record, and
// line number and error text for error.
func FuzzDecodeWindows(f *testing.F) {
	for _, seed := range []string{
		"i 1 2 3\n",
		"v 7 1,2\n# comment\n\ni 7 1 8\nd 7 1 8",
		"i\v1\f2\r3\n",
		"v 1\r\n\r\ni 1 2 3\r\n",
		"i\u00851 2\u00a03\n",
		"\u3000i 1\u2000\u200a2\u205f3\u2028\n\u1680#x\n",
		"i 1 2 3\u200b\n",
		"i +1 2 3\n",
		"i 007 0002 0\n",
		"i 4294967296 0 0\n",
		"i 4294967295 65535 0\n",
		"v 1 65536\n",
		"v 1 1,,2\n",
		"v 1 1,\n",
		"v 1 ,1\n",
		"v 1 2 3\n",
		"v\n",
		"i 1 2\n",
		"i 1 2 3 4 5 6\n",
		"x y z\n",
		"#only\n   \n",
		"i 1 2 3\xe2\x80\n",
		"i 1\xc2 2 3\n",
		"i 1 2 3\n" + strings.Repeat("#", maxLine) + "\nd 1 2 3\n",
		strings.Repeat(" ", maxLine-1) + "\ni 1 2 3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, werr := oracleDecode(strings.NewReader(src))
		wantErr := oracleErr(src, werr)

		got, err := Decode(strings.NewReader(src))
		if errText(err) != wantErr {
			t.Fatalf("Decode error %q, oracle %q", errText(err), wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode records %+v, oracle %+v", got, want)
		}
		for _, size := range []int{1, 3, 4096} {
			got, err := decodeWindowed(t, src, size)
			if errText(err) != wantErr {
				t.Fatalf("size %d: error %q, oracle %q", size, errText(err), wantErr)
			}
			if werr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("size %d: records %+v, oracle %+v", size, got, want)
			}
			if werr != nil && len(got)%size != 0 {
				t.Fatalf("size %d: %d records handed over before the error, not whole windows", size, len(got))
			}
		}

		for _, line := range strings.Split(src, "\n") {
			want, werr := oracleParseLine(line)
			got, err := ParseLine(line)
			if errText(err) != errText(werr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("ParseLine(%q) = %+v, %v; oracle %+v, %v", line, got, err, want, werr)
			}
			fields := strings.Fields(line)
			isRecord := len(fields) > 0 && (fields[0] == "i" || fields[0] == "d" || fields[0] == "v")
			got, ok, err := ParseRecord(line)
			if ok != isRecord {
				t.Fatalf("ParseRecord(%q) ok = %v, want %v", line, ok, isRecord)
			}
			if ok && (errText(err) != errText(werr) || !reflect.DeepEqual(got, want)) {
				t.Fatalf("ParseRecord(%q) = %+v, %v; oracle %+v, %v", line, got, err, want, werr)
			}
			if !ok && (err != nil || !reflect.DeepEqual(got, Update{})) {
				t.Fatalf("ParseRecord(%q) parsed a non-record: %+v, %v", line, got, err)
			}
		}
	})
}

// TestDecodeLineTooLong: a line of 1 MiB or more, newline included, is
// refused by its line number; one a byte shorter is read.
func TestDecodeLineTooLong(t *testing.T) {
	fits := "i 1 2 3\n" + strings.Repeat(" ", maxLine-len("i 1 2 3\n")) + "i 1 2 3\n"
	if ups, err := Decode(strings.NewReader(fits)); err != nil || len(ups) != 2 {
		t.Fatalf("a line of exactly %d bytes: %d records, %v", maxLine, len(ups), err)
	}
	long := "i 1 2 3\n\n" + strings.Repeat("x", maxLine) + "\n"
	_, err := Decode(strings.NewReader(long))
	if want := fmt.Sprintf("stream: line 3: line longer than %d bytes with its newline", maxLine); errText(err) != want {
		t.Fatalf("error %q, want %q", errText(err), want)
	}
}

// windowText is n windows of size records, vertex declarations with two
// labels and edge inserts between declared vertices alternating.
func windowText(n, size int) string {
	var sb strings.Builder
	for i := 0; i < n*size; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&sb, "v %d %d,%d\n", i, i%7, 7+i%5)
		} else {
			fmt.Fprintf(&sb, "i %d %d %d\n", i-1, i%11, i/4*2)
		}
	}
	return sb.String()
}

// TestDecodeWindowsAllocs: once the first window has sized the window and
// its label scratch, decoding allocates nothing per record — sixteen
// windows cost the allocations of one.
func TestDecodeWindowsAllocs(t *testing.T) {
	const size = 256
	allocs := func(windows int) float64 {
		src := windowText(windows, size)
		r := strings.NewReader(src)
		var records int
		n := testing.AllocsPerRun(5, func() {
			r.Reset(src)
			records = 0
			if err := DecodeWindows(r, size, func(w []Update) error {
				records += len(w)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		if records != windows*size {
			t.Fatalf("decoded %d records, want %d", records, windows*size)
		}
		return n
	}
	one, many := allocs(1), allocs(16)
	if many != one {
		t.Fatalf("16 windows allocate %.0f times, one window %.0f: %.2f allocations per record",
			many, one, (many-one)/(15*size))
	}
}

// finalized closes the returned channel once obj is collected.
func finalized[T any](obj *T) <-chan struct{} {
	done := make(chan struct{})
	runtime.SetFinalizer(obj, func(*T) { close(done) })
	return done
}

// awaitCollected runs the collector until every channel is closed. It is a
// poll: a finalizer runs only after a collection finds its object
// unreachable, so each round collects before it looks.
func awaitCollected(t *testing.T, what map[string]<-chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for name, ch := range what {
		for collected := false; !collected; {
			runtime.GC()
			select {
			case <-ch:
				collected = true
			default:
				if time.Now().After(deadline) {
					t.Fatalf("the %s is still reachable", name)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
}

// bufferSpy is a reader that remembers the first buffer it is read into:
// the decoder's read buffer.
type bufferSpy struct {
	r   io.Reader
	buf *byte
}

func (s *bufferSpy) Read(p []byte) (int, error) {
	if s.buf == nil && len(p) > 0 {
		s.buf = &p[0]
	}
	return s.r.Read(p)
}

// TestDecodeWindowsNotRetained: a graph built from the windows keeps none
// of the decoder's memory — not the window, not the label scratch (the
// graph copies label sets), not the read buffer and not the reader.
//
//go:noinline
func TestDecodeWindowsNotRetained(t *testing.T) {
	g := graph.New()
	spy := &bufferSpy{r: strings.NewReader(windowText(4, 64))}
	var window *Update
	var scratch *graph.Label // the label scratch of the last window
	err := DecodeWindows(spy, 64, func(w []Update) error {
		window, scratch = &w[0], &w[0].Labels[0]
		ApplyAll(g, w)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	what := map[string]<-chan struct{}{
		"window":        finalized(window),
		"label scratch": finalized(scratch),
		"read buffer":   finalized(spy.buf),
		"reader":        finalized(spy),
	}
	window, scratch, spy = nil, nil, nil
	awaitCollected(t, what)
	if g.NumVertices() != 4*64/2 || fmt.Sprint(g.Labels(254)) != "[2 11]" {
		t.Fatalf("graph: %d vertices, vertex 254 labeled %v", g.NumVertices(), g.Labels(254))
	}
	runtime.KeepAlive(g)
}

// BenchmarkParseLine is the wire's per-record parse: one edge insert.
func BenchmarkParseLine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseLine("i 123456 7 654321"); err != nil {
			b.Fatal(err)
		}
	}
}
