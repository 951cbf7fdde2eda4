package server

import (
	"strings"
	"testing"

	"turboflux/internal/graph"
	"turboflux/internal/stream"
)

func TestParseRequest(t *testing.T) {
	tests := []struct {
		line    string
		want    Request
		wantErr bool
	}{
		{line: "PING", want: Request{Kind: KindPing}},
		{line: "PING\r", want: Request{Kind: KindPing}},
		{line: "  PING  ", want: Request{Kind: KindPing}},
		{line: "PING extra", wantErr: true},
		{line: "QUIT", want: Request{Kind: KindQuit}},
		{line: "QUERIES", want: Request{Kind: KindQueries}},
		{line: "STATS", want: Request{Kind: KindStats}},
		{line: "", wantErr: true},
		{line: "   ", wantErr: true},
		{line: "ping", wantErr: true}, // commands are case-sensitive
		{line: "NOSUCH", wantErr: true},

		{
			line: "REGISTER pay (a:0)-[:1]->(b:0)",
			want: Request{Kind: KindRegister, Name: "pay", Arg: "(a:0)-[:1]->(b:0)"},
		},
		{
			// The pattern keeps its internal spacing; the name may recur
			// inside the command word or the pattern without confusing the
			// parser.
			line: "REGISTER R (R:0)-[:1]->(b:0),  (b)-[:2]->(c)",
			want: Request{Kind: KindRegister, Name: "R", Arg: "(R:0)-[:1]->(b:0),  (b)-[:2]->(c)"},
		},
		{line: "REGISTER onlyname", wantErr: true},
		{line: "REGISTER bad/name (a)-[:0]->(b)", wantErr: true},
		{line: "REGISTER " + strings.Repeat("n", maxNameLen+1) + " (a)-[:0]->(b)", wantErr: true},

		{line: "UNREGISTER pay", want: Request{Kind: KindUnregister, Name: "pay"}},
		{line: "UNREGISTER", wantErr: true},
		{line: "UNREGISTER a b", wantErr: true},
		{line: "SUBSCRIBE q-1.x_Y", want: Request{Kind: KindSubscribe, Name: "q-1.x_Y"}},
		{line: "SUBSCRIBE q uery", wantErr: true},
		{line: "UNSUBSCRIBE pay", want: Request{Kind: KindUnsubscribe, Name: "pay"}},

		{line: "LABEL vertex Person", want: Request{Kind: KindLabel, Name: "vertex", Arg: "Person"}},
		{line: "LABEL edge follows", want: Request{Kind: KindLabel, Name: "edge", Arg: "follows"}},
		{line: "LABEL hyperedge x", wantErr: true},
		{line: "LABEL vertex", wantErr: true},
		{line: "LABEL vertex " + strings.Repeat("x", maxNameLen+1), wantErr: true},

		{line: "BATCH 3", want: Request{Kind: KindBatch, Count: 3}},
		{line: "BATCH 0", wantErr: true},
		{line: "BATCH -1", wantErr: true},
		{line: "BATCH many", wantErr: true},
		{line: "BATCH 100001", wantErr: true},
		{line: "BATCHB 16", want: Request{Kind: KindBatchBin, Count: 16}},
		{line: "BATCHB 4194305", wantErr: true},

		{line: "i 1 2 3", want: Request{Kind: KindUpdate, Update: stream.Insert(1, 2, 3)}},
		{line: "d 1 2 3", want: Request{Kind: KindUpdate, Update: stream.Delete(1, 2, 3)}},
		{line: "v 7 1,2", want: Request{Kind: KindUpdate, Update: stream.DeclareVertex(7, 1, 2)}},
		{line: "i 1 2", wantErr: true},
		{line: "i x y z", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseRequest(tt.line)
		if tt.wantErr {
			if err == nil {
				t.Errorf("ParseRequest(%q) = %+v, want error", tt.line, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRequest(%q): %v", tt.line, err)
			continue
		}
		if got.Kind != tt.want.Kind || got.Name != tt.want.Name || got.Arg != tt.want.Arg || got.Count != tt.want.Count {
			t.Errorf("ParseRequest(%q) = %+v, want %+v", tt.line, got, tt.want)
		}
		if got.Kind == KindUpdate && got.Update.String() != tt.want.Update.String() {
			t.Errorf("ParseRequest(%q).Update = %v, want %v", tt.line, got.Update, tt.want.Update)
		}
	}
}

// TestParseRequestAllocs: an update line is parsed where it lies, so an
// edge update allocates nothing at all (its Request is returned by value)
// and a vertex declaration only its label slice.
func TestParseRequestAllocs(t *testing.T) {
	for _, tt := range []struct {
		line   string
		allocs float64
	}{
		{"i 123456 7 654321", 0},
		{"d 1 2 3\r", 0},
		{"v 7 1,2", 1},
	} {
		got := testing.AllocsPerRun(100, func() {
			if req, err := ParseRequest(tt.line); err != nil || req.Kind != KindUpdate {
				t.Fatalf("ParseRequest(%q) = %+v, %v", tt.line, req, err)
			}
		})
		if got != tt.allocs {
			t.Errorf("ParseRequest(%q) allocates %.0f times, want %.0f", tt.line, got, tt.allocs)
		}
	}
}

func TestAppendEventLine(t *testing.T) {
	got := string(appendEventLine(nil, "pay", 42, true, []graph.VertexID{1, 20, 3}))
	if got != "*EVENT pay 42 + 1 20 3" {
		t.Fatalf("event line = %q", got)
	}
	got = string(appendEventLine(nil, "pay", 42, false, nil))
	if got != "*EVENT pay 42 -" {
		t.Fatalf("negative event line = %q", got)
	}
}
