package wire

import (
	"errors"
	"testing"

	"turboflux/internal/stream"
)

func TestParseAcks(t *testing.T) {
	a, err := ParseAck([]byte("+OK 640721 3 q01=2 q07=1"))
	if err != nil || a != (Ack{Seq: 640721, N: 1, Total: 3}) {
		t.Errorf("ParseAck = %+v, %v", a, err)
	}
	b, err := ParseBatchAck([]byte("+OK 12 256 9041"))
	if err != nil || b != (Ack{Seq: 12, N: 256, Total: 9041}) {
		t.Errorf("ParseBatchAck = %+v, %v", b, err)
	}
	if _, err := ParseAck([]byte("-ERR server: read-only follower")); !errors.Is(err, ErrRefused) {
		t.Errorf("-ERR must be ErrRefused, got %v", err)
	}
	for _, bad := range []string{"", "+OK", "+OK x 1", "+DATA 3", "+OK 1"} {
		if _, err := ParseAck([]byte(bad)); err == nil || errors.Is(err, ErrRefused) {
			t.Errorf("ParseAck(%q) = %v, want a framing error", bad, err)
		}
	}
	if seq, err := ParseSubscribed("+OK 540302"); err != nil || seq != 540302 {
		t.Errorf("ParseSubscribed = %d, %v", seq, err)
	}
}

func TestParseEvent(t *testing.T) {
	ev, ok := ParseEvent([]byte("*EVENT q03 77 - 5 9 12 4"))
	if !ok || string(ev.Query) != "q03" || ev.Seq != 77 || ev.Positive {
		t.Errorf("ParseEvent = %+v, %v", ev, ok)
	}
	ev, ok = ParseEvent([]byte("*EVENT q00 1 + 1 2"))
	if !ok || !ev.Positive {
		t.Errorf("ParseEvent(+) = %+v, %v", ev, ok)
	}
	for _, other := range []string{"*EVICTED q03", "+OK 1 0", "*EVENT q03", "*EVENT q03 x + 1"} {
		if _, ok := ParseEvent([]byte(other)); ok {
			t.Errorf("ParseEvent(%q) accepted a non-event", other)
		}
	}
}

func TestUpdateLinesAndFrames(t *testing.T) {
	ups := []stream.Update{stream.Insert(1, 5, 2), stream.Delete(300, 17, 4)}
	lines, ends, err := UpdateLines(ups)
	if err != nil {
		t.Fatal(err)
	}
	if string(lines) != "i 1 5 2\nd 300 17 4\n" || ends[0] != 8 || ends[1] != len(lines) {
		t.Errorf("UpdateLines = %q, %v", lines, ends)
	}
	var f Framer
	frame, err := f.BatchB(ups)
	if err != nil {
		t.Fatal(err)
	}
	head := "BATCHB 9\n"
	if string(frame[:len(head)]) != head || len(frame) != len(head)+9 {
		t.Fatalf("frame = %q", frame)
	}
	body := frame[len(head):]
	for i := range ups {
		u, used, err := stream.DecodeBinary(body)
		if err != nil || u.Op != ups[i].Op || u.Edge != ups[i].Edge {
			t.Fatalf("record %d decodes to %v, %v", i, u, err)
		}
		body = body[used:]
	}
}

func TestParseLines(t *testing.T) {
	ls := ParseLines([]string{
		"server conns=3 policy=block queue_cap=1024 seq=9 updates=9 events=40 dropped=0 evicted=0",
		"query q03 pos=12 neg=4 dcg_edges=10 bytes=160 subs=1",
		"shard 1 addr=127.0.0.1:9 alive=true queries=16 seq=9 lag=2 ping_us=140",
		"",
	})
	if len(ls) != 3 {
		t.Fatalf("got %d lines", len(ls))
	}
	if v, ok := ls[0].Num("events"); ls[0].Kind != "server" || v != 40 || !ok || ls[0].KV["policy"] != "block" {
		t.Errorf("server line = %+v", ls[0])
	}
	if v, ok := ls[1].Num("neg"); ls[1].Name != "q03" || v != 4 || !ok {
		t.Errorf("query line = %+v", ls[1])
	}
	if v, ok := ls[2].Num("lag"); ls[2].Name != "1" || v != 2 || !ok {
		t.Errorf("shard line = %+v", ls[2])
	}
	// A key the server no longer prints, or prints as a word, must not
	// read as a zero counter.
	if _, ok := ls[2].Num("absent"); ok {
		t.Error("an absent key read as a number")
	}
	if _, ok := ls[0].Num("policy"); ok {
		t.Error("a non-numeric value read as a number")
	}
}
