package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The follower link's timing. The leader pings an idle stream every
// replPingInterval, so a read that waits linkReadTimeout means a dead peer.
// Reconnects back off from linkBackoffMin, doubling per failed attempt up to
// linkBackoffMax, and start again from linkBackoffMin after a handshake the
// leader accepted.
const (
	linkDialTimeout = 3 * time.Second
	linkReadTimeout = 15 * time.Second
	linkBackoffMin  = 100 * time.Millisecond
	linkBackoffMax  = 5 * time.Second
)

// link is a follower's replication link to its leader: follow runs it, and
// stopLink ends it.
type link struct {
	stop chan struct{} // closed by stopLink
	done chan struct{} // closed when follow returns
	once sync.Once
}

// follow runs replication sessions with the leader at a.leaderAddr,
// backing off between them, until stopLink. Everything a session applies
// goes through the actor's mailbox, so the engine stays actor-confined.
func (a *actor) follow() {
	defer close(a.link.done)
	backoff := linkBackoffMin
	for {
		// A session's error says why it ended; the next session starts over
		// from the applied LSN whatever it was.
		handshaken, _ := a.linkSession()
		select {
		case <-a.link.stop:
			return
		default:
		}
		a.box.Send(request{kind: reqReplStatus}) //tf:unchecked-ok best-effort status report
		if handshaken {
			backoff = linkBackoffMin
		}
		select {
		case <-a.link.stop:
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, linkBackoffMax)
	}
}

// stopLink stops the follower's replication link, if any. Idempotent and
// safe to call concurrently (PROMOTE races Shutdown); it returns once
// follow has, so no replication request reaches the actor afterwards.
func (a *actor) stopLink() {
	if a.link != nil {
		a.link.once.Do(func() { close(a.link.stop) })
		<-a.link.done
	}
}

// linkSession runs one replication session: dial, handshake, then apply the
// leader's pushes until the connection breaks or stopLink closes it.
// handshaken reports whether the leader accepted REPLICATE.
func (a *actor) linkSession() (handshaken bool, err error) {
	nc, err := net.DialTimeout("tcp", a.leaderAddr, linkDialTimeout)
	if err != nil {
		return false, err
	}
	defer nc.Close() //tf:unchecked-ok session teardown

	// stopLink must interrupt a blocked read: close the socket when it fires.
	sessionEnd := make(chan struct{})
	defer close(sessionEnd)
	//tf:goroutine replica-link-stopper
	go func() {
		select {
		case <-a.link.stop:
			nc.Close() //tf:unchecked-ok forced teardown
		case <-sessionEnd:
		}
	}()

	resp, _ := a.box.Call(request{kind: reqReplLSN}) // ErrClosed leaves it zero
	applied := resp.seq
	scratch := appendRepl(nil, "REPLICATE", applied)
	if _, err := nc.Write(scratch); err != nil {
		return false, err
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	line, err := readLinkLine(nc, br)
	if err != nil {
		return false, err
	}
	f := strings.Fields(line)
	if len(f) != 2 || f[0] != "+OK" {
		return false, fmt.Errorf("server: leader refused REPLICATE: %q", clip(line))
	}
	cut, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return false, fmt.Errorf("server: bad REPLICATE cut LSN %q", clip(f[1]))
	}

	leaderLSN := max(cut, applied)
	for {
		a.box.Send(request{kind: reqReplStatus, up: true, lsn: leaderLSN}) //tf:unchecked-ok best-effort status report
		line, err := readLinkLine(nc, br)
		if err != nil {
			return true, err
		}
		p, err := parseReplLine(line)
		if err != nil {
			return true, err
		}
		var body []byte
		if p.word == snapWord || p.word == framesWord {
			nbytes := int(p.n[len(replRanges[p.word])-1]) // a body's length is its line's last number
			// A large snapshot must not be cut off by the idle timeout.
			timeout := linkReadTimeout + time.Duration(nbytes>>20)*time.Second
			if err := nc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
				return true, err
			}
			body = make([]byte, nbytes)
			if _, err := io.ReadFull(br, body); err != nil {
				return true, err
			}
		}
		switch p.word {
		case snapWord:
			resp, err = a.box.Call(request{kind: reqReplSeed, data: body})
			applied = resp.seq
			leaderLSN = max(leaderLSN, p.n[0])
		case framesWord:
			resp, err = a.box.Call(request{kind: reqReplFrames, lsn: p.n[0], count: int(p.n[1]), data: body})
			applied = resp.seq
			leaderLSN = max(leaderLSN, p.n[0]+p.n[1]-1)
		case pingWord:
			leaderLSN = max(leaderLSN, p.n[0])
		default:
			err = fmt.Errorf("server: the leader sent %s", ackWord)
		}
		if err != nil {
			return true, err
		}
		if _, err := nc.Write(appendRepl(scratch[:0], ackWord, applied)); err != nil {
			return true, err
		}
	}
}

// readLinkLine reads one LF-terminated line from the leader (LF stripped)
// within linkReadTimeout. A line longer than br's buffer is an error.
func readLinkLine(nc net.Conn, br *bufio.Reader) (string, error) {
	if err := nc.SetReadDeadline(time.Now().Add(linkReadTimeout)); err != nil {
		return "", err
	}
	b, err := br.ReadSlice('\n')
	if err != nil {
		return "", err
	}
	return string(b[:len(b)-1]), nil
}
