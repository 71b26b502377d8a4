package simnet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"
)

// This file extends simnet from a pure cost model (Path) to an
// in-process transport that the server wire can actually run over:
// Net hands out net.Listener/net.Conn pairs whose message deliveries
// are perturbed — dropped, delayed on the virtual clock, reordered,
// or black-holed during a partition — by a deterministic, seeded
// schedule. The simulation harness (internal/sim) uses it to drive
// the real binary wire protocol through adversarial interleavings
// without touching the kernel's TCP stack or real time.
//
// Fault semantics are chosen to match what a reliable byte stream can
// actually exhibit:
//
//   - drop: a TCP segment loss the stack could not recover from is a
//     broken connection, never a silently missing message. A "drop"
//     therefore replaces the message with poison bytes that fail the
//     peer's frame check, forcing the endpoints through their
//     teardown/reconnect paths.
//   - delay: the message is delivered when the virtual clock reaches
//     now+d, so delays only resolve when the simulation advances time.
//   - reorder: the message is held in a one-slot buffer and delivered
//     after the connection's next message (or on Flush/close).
//   - partition: messages from both directions accumulate in a limbo
//     queue, delivered in original order by Heal.

// TimerClock is the clock capability Net needs: current virtual time
// plus delayed callbacks. clock.Virtual and clock.Real both satisfy it.
type TimerClock interface {
	Now() time.Time
	AfterFunc(d time.Duration, fn func(now time.Time)) (cancel func())
}

// NewPathWithRand is NewPath with a caller-supplied PRNG, for harnesses
// that derive every random stream from one root seed. The rng must be
// dedicated to this path: Path serializes its own draws but cannot
// coordinate with other users of the same rand.Rand.
func NewPathWithRand(name string, rng *rand.Rand, links ...Link) *Path {
	return &Path{name: name, links: links, rng: rng}
}

// poison is what a dropped message turns into: bytes no frame can carry
// (0xff is no wire version, and inside a frame it fails the CRC-32C
// trailer), so the receiver errors and runs its connection-failure path.
var poison = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// NetStats counts fault decisions, for test assertions and run summaries.
type NetStats struct {
	Delivered int64 // messages delivered without perturbation
	Dropped   int64 // messages replaced with poison
	Delayed   int64 // messages deferred on the virtual clock
	Reordered int64 // messages held behind their successor
	Limboed   int64 // messages captured by a partition
}

// Net is a deterministic in-process network. All conns share one fault
// schedule drawn from the injected PRNG, so a single seed reproduces
// the exact perturbation sequence. Safe for concurrent use.
type Net struct {
	clk TimerClock

	mu          sync.Mutex
	rng         *rand.Rand
	listeners   map[string]*netListener
	conns       map[*Conn]struct{}
	dropRate    float64
	reorderRate float64
	delayRate   float64
	maxDelay    time.Duration
	partitioned bool
	limbo       []limboMsg
	inflight    int
	stats       NetStats
}

type limboMsg struct {
	to   *inbox
	data []byte
}

// NewNet builds a network on the given clock. rng drives every fault
// decision and must be dedicated to this Net.
func NewNet(clk TimerClock, rng *rand.Rand) *Net {
	return &Net{
		clk:       clk,
		rng:       rng,
		listeners: make(map[string]*netListener),
		conns:     make(map[*Conn]struct{}),
	}
}

// SetFaults configures the per-message perturbation probabilities.
// Rates are cumulative-exclusive: each message draws once and is
// dropped with probability drop, reordered with reorder, delayed with
// delay (uniform in (0, maxDelay]), else delivered immediately.
func (n *Net) SetFaults(drop, reorder, delay float64, maxDelay time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropRate, n.reorderRate, n.delayRate, n.maxDelay = drop, reorder, delay, maxDelay
}

// Stats returns the accumulated fault counters.
func (n *Net) Stats() NetStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Inflight reports how many messages are currently captured by the
// network: delayed, held for reorder, or in partition limbo. The
// harness drains to zero before trusting a consistency check.
func (n *Net) Inflight() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inflight
}

// Partition black-holes all traffic (and refuses dials) until Heal.
func (n *Net) Partition() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned = true
}

// Heal ends a partition and delivers everything captured in limbo, in
// original send order.
func (n *Net) Heal() {
	n.mu.Lock()
	n.partitioned = false
	msgs := n.limbo
	n.limbo = nil
	n.inflight -= len(msgs)
	n.mu.Unlock()
	for _, m := range msgs {
		m.to.push(m.data)
	}
}

// Flush delivers every held reorder slot immediately. Settle phases
// call it (after Heal) so a message with no successor cannot stay
// captured forever.
func (n *Net) Flush() {
	n.mu.Lock()
	var frees []func()
	for c := range n.conns {
		if f := c.takeHeld(); f != nil {
			frees = append(frees, f)
		}
	}
	n.mu.Unlock()
	for _, f := range frees {
		f()
	}
}

// BreakConns closes every established connection (both endpoints),
// leaving listeners intact — the simulation's "kill the TCP
// connections but not the server" fault.
func (n *Net) BreakConns() {
	n.mu.Lock()
	conns := make([]*Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// BreakConnsTo closes every established connection whose endpoints
// belong to the named listener, leaving other endpoints' conns and all
// listeners intact — the cluster simulation's "kill one node's links"
// fault. Conn addresses are derived from the listener name at dial
// time, so the prefix match is exact per endpoint.
func (n *Net) BreakConnsTo(name string) {
	prefix := name + ":"
	n.mu.Lock()
	conns := make([]*Conn, 0, len(n.conns))
	for c := range n.conns {
		if strings.HasPrefix(string(c.addr), prefix) {
			conns = append(conns, c)
		}
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Listen registers (or replaces) the named endpoint and returns its
// listener. Replacing closes the previous listener, which is how a
// restarted server reclaims its address.
func (n *Net) Listen(name string) net.Listener {
	n.mu.Lock()
	old := n.listeners[name]
	l := &netListener{n: n, name: name}
	l.cond = sync.NewCond(&l.mu)
	n.listeners[name] = l
	n.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return l
}

// Dial connects to the named listener. The timeout only bounds the
// accept handshake, which is instantaneous here; dials fail fast when
// the listener is absent or the network is partitioned.
func (n *Net) Dial(name string, timeout time.Duration) (net.Conn, error) {
	n.mu.Lock()
	if n.partitioned {
		n.mu.Unlock()
		return nil, &net.OpError{Op: "dial", Net: "sim", Err: errors.New("simnet: network partitioned")}
	}
	l := n.listeners[name]
	n.mu.Unlock()
	if l == nil {
		return nil, &net.OpError{Op: "dial", Net: "sim", Err: errors.New("simnet: connection refused")}
	}
	client := &Conn{n: n, addr: simAddr(name + ":client"), in: newInbox()}
	server := &Conn{n: n, addr: simAddr(name + ":server"), in: newInbox()}
	client.peer, server.peer = server, client
	n.mu.Lock()
	n.conns[client] = struct{}{}
	n.conns[server] = struct{}{}
	n.mu.Unlock()
	if err := l.enqueue(server); err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}

// Dialer adapts Dial to the dialer signature the server client accepts
// (server.WithDialer).
func (n *Net) Dialer() func(addr string, timeout time.Duration) (net.Conn, error) {
	return n.Dial
}

type simAddr string

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return string(a) }

// netListener queues accepted conns for a named endpoint.
type netListener struct {
	n    *Net
	name string

	mu      sync.Mutex
	cond    *sync.Cond
	backlog []*Conn
	closed  bool
}

func (l *netListener) enqueue(c *Conn) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return &net.OpError{Op: "dial", Net: "sim", Err: errors.New("simnet: connection refused")}
	}
	l.backlog = append(l.backlog, c)
	l.cond.Signal()
	return nil
}

// Accept implements net.Listener.
func (l *netListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.backlog) == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return nil, net.ErrClosed
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// Close implements net.Listener. Conns already accepted stay open.
func (l *netListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	backlog := l.backlog
	l.backlog = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	for _, c := range backlog {
		c.Close()
	}
	l.n.mu.Lock()
	if l.n.listeners[l.name] == l {
		delete(l.n.listeners, l.name)
	}
	l.n.mu.Unlock()
	return nil
}

// Addr implements net.Listener.
func (l *netListener) Addr() net.Addr { return simAddr(l.name) }

// Conn is one endpoint of an in-process connection. Each Write is one
// message through the fault scheduler; Read drains delivered bytes as
// a stream, so the wire's framing above it behaves exactly as over TCP.
type Conn struct {
	n    *Net
	addr simAddr
	peer *Conn
	in   *inbox

	mu      sync.Mutex
	closed  bool
	held    []byte // one-slot reorder buffer for messages outbound to peer
	hasHeld bool
}

// takeHeld removes the held reorder message and returns a closure that
// delivers it, or nil if no message is held. Caller must hold n.mu;
// the returned closure must run after n.mu is released.
func (c *Conn) takeHeld() func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.hasHeld {
		return nil
	}
	data := c.held
	c.held, c.hasHeld = nil, false
	peer := c.peer
	c.n.inflight--
	return func() { peer.in.push(data) }
}

// Write implements net.Conn. The full buffer is treated as one message
// and routed through the fault scheduler; the return value always
// claims success for perturbed messages, as a kernel send buffer would.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.mu.Unlock()
	if c.peer.in.unwritable() {
		return 0, &net.OpError{Op: "write", Net: "sim", Err: errors.New("simnet: broken pipe")}
	}
	data := make([]byte, len(b))
	copy(data, b)

	n := c.n
	n.mu.Lock()
	switch {
	case n.partitioned:
		n.limbo = append(n.limbo, limboMsg{to: c.peer.in, data: data})
		n.inflight++
		n.stats.Limboed++
		n.mu.Unlock()

	default:
		r := n.rng.Float64()
		switch {
		case r < n.dropRate:
			n.stats.Dropped++
			n.mu.Unlock()
			c.peer.in.push(poison)

		case r < n.dropRate+n.reorderRate && !c.reorderSlotBusy():
			c.mu.Lock()
			// A Close that began after the check at the top has already
			// looked for a held message: one held now would stay counted
			// in flight for ever. It is discarded, as Close discards.
			if !c.closed {
				c.held, c.hasHeld = data, true
				n.inflight++
			}
			c.mu.Unlock()
			n.stats.Reordered++
			n.mu.Unlock()

		case r < n.dropRate+n.reorderRate+n.delayRate && n.maxDelay > 0:
			d := time.Duration(n.rng.Int63n(int64(n.maxDelay))) + 1
			n.inflight++
			n.stats.Delayed++
			peer := c.peer
			n.mu.Unlock()
			n.clk.AfterFunc(d, func(time.Time) {
				n.mu.Lock()
				n.inflight--
				n.mu.Unlock()
				peer.in.push(data)
			})

		default:
			n.stats.Delivered++
			n.mu.Unlock()
			c.peer.in.push(data)
			// The reorder contract: a held message follows the next
			// message on the wire.
			if f := c.takeHeldLocked(); f != nil {
				f()
			}
		}
	}
	return len(b), nil
}

// reorderSlotBusy reports whether a message is already held. Called
// with n.mu held; takes only the conn lock (leaf).
func (c *Conn) reorderSlotBusy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hasHeld
}

// takeHeldLocked is takeHeld with the net-lock bookkeeping done
// internally (for call sites not holding n.mu).
func (c *Conn) takeHeldLocked() func() {
	c.mu.Lock()
	if !c.hasHeld {
		c.mu.Unlock()
		return nil
	}
	data := c.held
	c.held, c.hasHeld = nil, false
	peer := c.peer
	c.mu.Unlock()
	c.n.mu.Lock()
	c.n.inflight--
	c.n.mu.Unlock()
	return func() { peer.in.push(data) }
}

// Read implements net.Conn.
func (c *Conn) Read(b []byte) (int, error) { return c.in.read(b) }

// Close implements net.Conn. The peer sees EOF after draining already
// delivered bytes; anything still captured by the network for this
// conn is discarded.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	hadHeld := c.hasHeld
	c.held, c.hasHeld = nil, false
	c.mu.Unlock()

	n := c.n
	n.mu.Lock()
	if hadHeld {
		n.inflight--
	}
	delete(n.conns, c)
	n.mu.Unlock()

	c.in.close()
	c.peer.in.setEOF()
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.addr }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.peer.addr }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.in.setDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.in.setDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn. Writes never block in this
// transport, so the deadline is trivially met.
func (c *Conn) SetWriteDeadline(t time.Time) error { return nil }

// String identifies the conn in traces.
func (c *Conn) String() string { return fmt.Sprintf("simconn(%s)", c.addr) }

// timeoutError satisfies net.Error with Timeout() == true, which is
// what deadline-aware callers (the frame reader's idle timeout)
// check for.
type timeoutError struct{}

func (timeoutError) Error() string   { return "simnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// inbox is the receive side of one conn direction: a byte buffer fed
// by message deliveries and drained by stream reads. Read deadlines
// are real-time (matching net.Conn semantics — the client's timers are
// real even in simulation).
type inbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	buf      []byte
	eof      bool // peer closed: drain, then io.EOF
	closed   bool // this endpoint closed: reads fail immediately
	deadline time.Time
	dlTimer  *time.Timer
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) push(data []byte) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed || ib.eof {
		return // delivery into a torn-down direction is lost, like post-FIN data
	}
	ib.buf = append(ib.buf, data...)
	ib.cond.Broadcast()
}

func (ib *inbox) unwritable() bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return ib.closed || ib.eof
}

func (ib *inbox) read(b []byte) (int, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		if ib.closed {
			return 0, net.ErrClosed
		}
		if len(ib.buf) > 0 {
			n := copy(b, ib.buf)
			ib.buf = ib.buf[n:]
			return n, nil
		}
		if ib.eof {
			return 0, io.EOF
		}
		if !ib.deadline.IsZero() && !time.Now().Before(ib.deadline) {
			return 0, timeoutError{}
		}
		ib.cond.Wait()
	}
}

func (ib *inbox) close() {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	ib.closed = true
	if ib.dlTimer != nil {
		ib.dlTimer.Stop()
	}
	ib.cond.Broadcast()
}

func (ib *inbox) setEOF() {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	ib.eof = true
	ib.cond.Broadcast()
}

func (ib *inbox) setDeadline(t time.Time) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	ib.deadline = t
	if ib.dlTimer != nil {
		ib.dlTimer.Stop()
		ib.dlTimer = nil
	}
	if !t.IsZero() {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		ib.dlTimer = time.AfterFunc(d, func() {
			ib.mu.Lock()
			ib.cond.Broadcast()
			ib.mu.Unlock()
		})
	}
	ib.cond.Broadcast()
}
