package server

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"turboflux"
)

// FuzzParseRequest holds the request parser to its contract: malformed
// input of any shape yields an error, never a panic, and success implies a
// concrete request kind.
func FuzzParseRequest(f *testing.F) {
	seeds := []string{
		"PING",
		"QUIT",
		"QUERIES",
		"STATS",
		"REGISTER pay (a:0)-[:1]->(b:0)",
		"REGISTER R MATCH (a:Person)-[:follows]->(b:Person)",
		"UNREGISTER pay",
		"SUBSCRIBE pay",
		"UNSUBSCRIBE pay",
		"LABEL vertex Person",
		"LABEL edge follows",
		"BATCH 3",
		"BATCHB 128",
		"REPLICATE 0",
		"REPLICATE 18446744073709551615",
		"REPLICATE -1",
		"REPLICATE 1 2",
		"PROMOTE",
		"PROMOTE now",
		"SHARDSTATS",
		"SHARDSTATS 3",
		"SHARDSTATS\r",
		"RACK 7",
		"i 1 2 3",
		"d 1 2 3",
		"v 7 1,2",
		"v 7",
		"",
		"   ",
		"\r",
		"REGISTER",
		"BATCH 99999999999999999999",
		"BATCHB -5",
		"i 18446744073709551616 0 0",
		"LABEL vertex \x00",
		"PING PING PING",
		strings.Repeat("A", 200),
		"REGISTER " + strings.Repeat("n", 200) + " (a)-[:0]->(b)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		req, err := ParseRequest(line)
		if err == nil && req.Kind == KindNone {
			t.Fatalf("ParseRequest(%q) succeeded with KindNone", line)
		}
		if err != nil && req.Kind != KindNone {
			t.Fatalf("ParseRequest(%q) errored with kind %d", line, req.Kind)
		}
		if req.Kind == KindBatch && (req.Count <= 0 || req.Count > MaxBatchRecords) {
			t.Fatalf("ParseRequest(%q) accepted batch count %d", line, req.Count)
		}
		if req.Kind == KindBatchBin && (req.Count <= 0 || req.Count > MaxBatchBytes) {
			t.Fatalf("ParseRequest(%q) accepted batch byte count %d", line, req.Count)
		}
	})
}

// FuzzParseEvent holds the push grammar to its contract from both ends:
// parseEvent never panics on a '*'-prefixed line of any shape, and what
// the server renders for an event parses back to that event. The actor's
// memo of rendered ids lives across inputs, as it does across updates, so
// entries are refilled and collide; it must render what appendEventLine,
// the stateless reference, renders.
func FuzzParseEvent(f *testing.F) {
	// Lines from the e2e transcripts, then malformed shapes.
	for _, s := range []string{
		"*EVENT knows2 17 + 3 9",
		"*EVENT knows3 204 - 1 10 4",
		"*EVENT q 18446744073709551615 + 4294967295",
		"*EVENT social 4 +",
		"*EVICTED knows2",
		"*EVICTED",
		"*EVENT",
		"*EVENT q",
		"*EVENT q 1",
		"*EVENT q x + 1",
		"*EVENT q 1 * 1",
		"*EVENT q 1 + -1",
		"*EVENT q 1 + 4294967296",
		"*RPING 7",
		"*",
		"* ",
		"*\x00EVENT q 1 + 1",
	} {
		f.Add(s, "q", uint64(1), true, []byte{1, 2})
	}
	var memo idMemo
	f.Fuzz(func(t *testing.T, line, query string, seq uint64, positive bool, raw []byte) {
		if strings.HasPrefix(line, "*") {
			parseEvent(line) //tf:unchecked-ok only panics matter
		}
		if checkName(query) != nil {
			return // the server renders registered (validated) names only
		}
		want := Event{Query: query, Seq: seq, Positive: positive, Mapping: []turboflux.VertexID{}}
		for i := 0; i+4 <= len(raw); i += 4 {
			v := uint32(raw[i]) | uint32(raw[i+1])<<8 | uint32(raw[i+2])<<16 | uint32(raw[i+3])<<24
			want.Mapping = append(want.Mapping, turboflux.VertexID(v))
		}
		rendered := string(appendEventLine(nil, want.Query, want.Seq, want.Positive, want.Mapping))
		if got := string(memo.appendBody(appendEventHead(nil, want.Query, want.Seq), want.Positive, want.Mapping)); got != rendered {
			t.Fatalf("memo rendered %q, want %q", got, rendered)
		}
		// The same ids folded onto four per entry, so they evict each other.
		folded := make([]turboflux.VertexID, len(want.Mapping))
		for i, v := range want.Mapping {
			folded[i] = v % (4 * idMemoSize)
		}
		if got, ref := memo.appendBody(nil, positive, folded), appendEventBody(nil, positive, folded); !bytes.Equal(got, ref) {
			t.Fatalf("memo rendered %q for %v, want %q", got, folded, ref)
		}
		got, err := parseEvent(rendered)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("parseEvent(%q) = %+v, %v; want %+v", rendered, got, err, want)
		}
	})
}
