package main

import (
	"net"
	"sync"
)

// holdCap bounds the bytes a connection holds, and so the buffer it
// keeps. A write that would take them past it goes out at once, behind
// the held bytes, in one writev(2).
const holdCap = 16 << 10

// holdListener hands out connections that hold what the server writes
// until it next reads. net/http writes a response as its 4 KiB
// connection buffer fills, then the rest (header and ≈ 4 KiB of an
// 8 KiB body, then the other 4 KiB); held, the whole response leaves in
// one write(2) instead of two.
type holdListener struct{ net.Listener }

// Accept wraps the next connection in a heldConn.
func (l holdListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &heldConn{Conn: c}, nil
}

// heldConn holds written bytes and sends them before a Read, on
// CloseWrite and on Close. net/http only ever waits on a Read — for the
// next request, or for a request body — so a finished response is never
// stranded. (A handler that flushed and then waited for the peer would
// be: plcached has none.) The handler's writes and net/http's background
// read share the held bytes under mu, which is also held across the
// send, so bytes leave in the order written.
type heldConn struct {
	net.Conn
	mu   sync.Mutex
	held []byte
}

// Write holds p, or sends it behind the held bytes when holding it
// would pass holdCap.
func (c *heldConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.held)+len(p) <= holdCap {
		c.held = append(c.held, p...)
		return len(p), nil
	}
	if err := c.sendLocked(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Read sends what is held, then reads — except a one-byte read. That is
// net/http's background read, which it keeps pending while a handler
// runs, to notice the peer hanging up; the handler may be halfway
// through its response, and the read for the next request sends the
// response whole once it is done.
func (c *heldConn) Read(p []byte) (int, error) {
	if len(p) > 1 {
		if err := c.flush(); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

// CloseWrite sends what is held, then shuts down the writing side when
// the connection has one (a TCP connection does).
func (c *heldConn) CloseWrite() error {
	if err := c.flush(); err != nil {
		return err
	}
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// Close sends what is held, then closes the connection.
func (c *heldConn) Close() error {
	ferr := c.flush()
	if err := c.Conn.Close(); err != nil {
		return err
	}
	return ferr
}

// flush sends what is held.
func (c *heldConn) flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sendLocked(nil)
}

// sendLocked sends the held bytes followed by p in one call on the
// connection — a write(2) when only one of them is non-empty, a
// writev(2) through net.Buffers when both are — and empties the hold.
func (c *heldConn) sendLocked(p []byte) (err error) {
	switch {
	case len(c.held) == 0 && len(p) == 0:
	case len(c.held) == 0:
		_, err = c.Conn.Write(p)
	case len(p) == 0:
		_, err = c.Conn.Write(c.held)
	default:
		bufs := net.Buffers{c.held, p}
		_, err = bufs.WriteTo(c.Conn)
	}
	c.held = c.held[:0]
	return err
}
