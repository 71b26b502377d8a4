package remote

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"placeless/internal/server"
)

// readTap records the flags of every read frame a client sends, on
// every connection it dials, by parsing the outbound byte stream: an
// 8-byte preamble, then frames of a 16-byte header (op at byte 1,
// flags at 2:4, payload length at 12:16), the payload and a 4-byte
// trailer (DESIGN.md §12).
type readTap struct {
	mu    sync.Mutex
	flags []uint16
}

// dial is a server.Dialer that wraps each connection in the tap.
func (t *readTap) dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: conn, tap: t, skip: 8}, nil
}

// reads returns the flags of the read frames sent so far.
func (t *readTap) reads() []uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]uint16(nil), t.flags...)
}

type tapConn struct {
	net.Conn
	tap  *readTap
	skip int    // preamble bytes still to pass
	buf  []byte // the unparsed tail of the stream
}

// Write parses what the client's frame writer sends; it is the only
// writer on the connection.
func (c *tapConn) Write(p []byte) (int, error) {
	n := min(c.skip, len(p))
	c.skip -= n
	c.buf = append(c.buf, p[n:]...)
	for len(c.buf) >= 16 {
		size := 16 + int(binary.BigEndian.Uint32(c.buf[12:16])) + 4
		if len(c.buf) < size {
			break
		}
		if server.Op(c.buf[1]) == server.OpRead {
			c.tap.mu.Lock()
			c.tap.flags = append(c.tap.flags, binary.BigEndian.Uint16(c.buf[2:4]))
			c.tap.mu.Unlock()
		}
		c.buf = c.buf[size:]
	}
	return c.Conn.Write(p)
}

// TestEveryMissCarriesItsSubscription: the sidecar keeps no copy of
// which keys its connection is subscribed to, so every read frame it
// sends asks for the notifiers — a key's first miss, the miss after a
// push dropped it, the miss after an eviction and the miss after a
// reconnect alike. Each of those reads leaves the key pushed: the write
// after it empties the cache.
func TestEveryMissCarriesItsSubscription(t *testing.T) {
	tap := &readTap{}
	r := newChaosRig(t, Options{},
		server.WithDialer(tap.dial),
		server.WithReconnect(5*time.Millisecond, 100*time.Millisecond),
		server.WithCallTimeout(2*time.Second))
	if err := r.client.CreateDocument("d", "u", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	version := 0
	read := func(when string) {
		t.Helper()
		want := fmt.Sprintf("v%d", version)
		if got, err := r.cache.Read("d", "u"); err != nil || string(got) != want {
			t.Fatalf("%s: read = %q, %v; want %q", when, got, err, want)
		}
		if !r.cache.Contains("d", "u") {
			t.Fatalf("%s: the miss did not install", when)
		}
		if got, err := r.cache.Read("d", "u"); err != nil || string(got) != want {
			t.Fatalf("%s: hit = %q, %v; want %q", when, got, err, want)
		}
	}
	write := func() {
		t.Helper()
		version++
		if err := r.space.WriteDocument("d", "u", []byte(fmt.Sprintf("v%d", version))); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return !r.cache.Contains("d", "u") })
	}

	read("first miss")
	write()
	read("after a push")
	r.cache.tab.Resize(1)
	if r.cache.Len() != 0 {
		t.Fatal("shrinking the table evicted nothing")
	}
	r.cache.tab.Resize(0)
	read("after an eviction")
	write()
	r.kill()
	waitFor(t, func() bool { return r.client.State() == server.StateDisconnected })
	r.restart()
	waitFor(t, func() bool { return r.cache.Stats().Reconnects == 1 && !r.cache.Suspect() })
	read("after a reconnect")
	write()

	if got := fmt.Sprint(tap.reads()); got != "[4 4 4 4]" {
		t.Fatalf("read frame flags = %s, want [4 4 4 4]: one subscribed miss each, hits stay local", got)
	}
}
