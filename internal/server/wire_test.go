package server

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
)

// writeCounter is a net.Conn that records each Write it is handed.
type writeCounter struct {
	net.Conn
	writes int
	out    bytes.Buffer
}

func (c *writeCounter) Write(b []byte) (int, error) {
	c.writes++
	return c.out.Write(b)
}

// TestWriteDataOneFrame: a +DATA block reaches the socket in one write, so
// a push written by another goroutine cannot land between its header and
// its payload lines.
func TestWriteDataOneFrame(t *testing.T) {
	nc := &writeCounter{}
	if err := NewWire(nc).WriteData([]string{"a x=1", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	if nc.writes != 1 || nc.out.String() != "+DATA 3\na x=1\nb\nc\n" {
		t.Fatalf("%d writes of %q, want 1 of the whole block", nc.writes, nc.out.String())
	}
}

// TestStatsCutReportsCause: a STATS payload cut by a line the client
// cannot frame fails with the read loop's error, not a bare "connection
// closed".
func TestStatsCutReportsCause(t *testing.T) {
	cc, peer := net.Pipe()
	c := newClient(cc, DialOptions{})
	defer c.Close()
	wrote := make(chan struct{})
	//tf:goroutine stats-cut-peer
	go func() {
		defer close(wrote)
		if _, err := bufio.NewReader(peer).ReadString('\n'); err != nil {
			return
		}
		// The client stops reading at the long line, so this write ends
		// when the test closes the pipe.
		peer.Write([]byte("+DATA 2\nserver conns=1\n" + strings.Repeat("x", MaxLineBytes+1) + "\n")) //tf:unchecked-ok the pipe closes under it
	}()
	_, err := c.Stats()
	peer.Close() //tf:unchecked-ok ends the peer's write
	<-wrote
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Stats() error = %v, want the read loop's %q", err, "exceeds")
	}
}
