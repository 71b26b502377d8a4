package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"placeless/internal/property"
	"placeless/internal/sig"
)

// ErrClientClosed is returned by calls on a client that was closed
// locally via Close.
var ErrClientClosed = errors.New("server: client closed")

// ErrTimeout is returned when a call's deadline expires before the
// server responds — including the wedged-connection case where the
// server accepted the request but never answers. The connection is
// considered broken afterwards (a response that never comes means the
// demultiplexer behind it cannot be trusted), so the reconnect
// machinery takes over.
var ErrTimeout = errors.New("server: call deadline exceeded")

// ErrDisconnected is returned by calls issued while the connection to
// the server is down. With reconnection enabled the client is dialing
// in the background; callers decide between failing fast and retrying
// (the remote cache fails fast).
var ErrDisconnected = errors.New("server: connection down")

// ErrHandshake is returned by Dial when the peer accepted the
// connection but did not complete the wire handshake within the dial
// timeout — it is not a Placeless server of this protocol generation.
// The background reconnector treats it like any failed dial and keeps
// backing off.
var ErrHandshake = errors.New("server: wire handshake failed")

// ConnState is the client's connection lifecycle state.
type ConnState int32

const (
	// StateConnected means the wire is up and calls flow.
	StateConnected ConnState = iota
	// StateDisconnected means the wire is down; with reconnection
	// enabled a background dialer is running backoff attempts.
	StateDisconnected
	// StateClosed means Close was called; the client is dead for good.
	StateClosed
)

// String names the state ("connected"/"disconnected"/"closed").
func (s ConnState) String() string {
	switch s {
	case StateConnected:
		return "connected"
	case StateDisconnected:
		return "disconnected"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Dialer establishes the client's underlying connection. The default
// dials TCP; simulations inject an in-process transport (simnet.Net).
type Dialer func(addr string, timeout time.Duration) (net.Conn, error)

func tcpDialer(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// dialConfig collects the per-client resilience knobs.
type dialConfig struct {
	callTimeout  time.Duration
	dialTimeout  time.Duration
	writeTimeout time.Duration
	reconnect    bool
	backoffBase  time.Duration
	backoffMax   time.Duration
	dialer       Dialer
	jitterSeed   int64
	jitterSeeded bool
}

func defaultDialConfig() dialConfig {
	return dialConfig{
		dialTimeout:  5 * time.Second,
		writeTimeout: 10 * time.Second,
		backoffBase:  50 * time.Millisecond,
		backoffMax:   5 * time.Second,
		dialer:       tcpDialer,
	}
}

// DialOption configures a Client at Dial time.
type DialOption func(*dialConfig)

// WithCallTimeout bounds every request/response round trip. When the
// deadline expires the call returns ErrTimeout and the connection is
// reset (a server that accepts requests but never answers is
// indistinguishable from a dead one). Zero disables the bound.
func WithCallTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.callTimeout = d }
}

// WithDialTimeout bounds each TCP dial, both the initial one and every
// reconnection attempt. Default 5s.
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.dialTimeout = d }
}

// WithWriteTimeout sets the per-frame write deadline on the
// connection, so a peer that stops draining its socket fails the
// sender instead of wedging it. Default 10s; zero disables.
func WithWriteTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.writeTimeout = d }
}

// WithReconnect enables automatic reconnection with exponential
// backoff plus jitter: after a connection failure the client redials
// in the background, starting at base and doubling up to max per
// attempt. Each successful reconnect increments the connection epoch
// (see Epoch) and reports StateConnected with it to the OnStateChange
// handler, which is how the remote cache flushes entries cached under
// the old epoch, whose subscriptions died with it.
func WithReconnect(base, max time.Duration) DialOption {
	return func(c *dialConfig) {
		c.reconnect = true
		if base > 0 {
			c.backoffBase = base
		}
		if max > 0 {
			c.backoffMax = max
		}
	}
}

// WithDialer replaces the transport used for the initial connection
// and every reconnect attempt. The simulation harness injects an
// in-process network here so the whole wire protocol runs under
// deterministic fault schedules; production code keeps the TCP
// default.
func WithDialer(d Dialer) DialOption {
	return func(c *dialConfig) {
		if d != nil {
			c.dialer = d
		}
	}
}

// WithJitterSeed fixes the PRNG behind reconnect backoff jitter so a
// simulation run is reproducible from a single seed. Without it the
// jitter is seeded from the wall clock, which is what a production
// fleet wants (clients spread out) and exactly what a deterministic
// replay cannot tolerate.
func WithJitterSeed(seed int64) DialOption {
	return func(c *dialConfig) {
		c.jitterSeed = seed
		c.jitterSeeded = true
	}
}

// ReadMeta is the cache-facing metadata a remote read returns.
type ReadMeta struct {
	// Cacheability is the aggregated read-path vote.
	Cacheability property.Cacheability
	// Cost is the replacement cost the read path accumulated.
	Cost time.Duration
	// Expiry is the earliest TTL deadline of the content (zero when
	// no TTL applies).
	Expiry time.Time
	// Signature is the origin-computed content signature of the body;
	// non-zero whenever Cacheability is not Uncacheable.
	Signature sig.Signature
	// HeadLen and HeadSig name the head a tail-shared body begins with:
	// its first HeadLen bytes are the origin's blob under HeadSig. Zero
	// for a whole body.
	HeadLen int
	HeadSig sig.Signature
}

// readMeta lifts a read response's wire metadata into ReadMeta.
func readMeta(resp *Response) ReadMeta {
	meta := ReadMeta{
		Cacheability: property.Cacheability(resp.Cacheability),
		Cost:         time.Duration(resp.CostNanos),
		Signature:    resp.Signature,
		HeadLen:      resp.HeadLen,
		HeadSig:      resp.HeadSig,
	}
	if resp.ExpiryUnixNanos != 0 {
		meta.Expiry = time.Unix(0, resp.ExpiryUnixNanos)
	}
	return meta
}

// pendingCall is one in-flight request. On success the response is
// delivered on ch; on connection failure err is set (typed) and ch is
// closed.
type pendingCall struct {
	ch  chan *Response
	err error
}

// wireConn is one established connection: encoded frames go through
// its single writer goroutine (which batches concurrent small frames
// into one writev), responses decode off a buffered reader.
type wireConn struct {
	c  net.Conn
	br *bufio.Reader
	fw *frameWriter

	closeOnce sync.Once
	closeErr  error
}

// sendRequest queues one request frame; the write deadline is armed
// by the writer goroutine per batch. A frame the encoder refuses
// (ErrTooLarge) is never queued.
func (w *wireConn) sendRequest(req *Request) error {
	f, err := encodeRequestFrame(req)
	if err != nil {
		return err
	}
	return w.fw.enqueue(f)
}

func (w *wireConn) readResponse() (*Response, error) { return readResponseFrame(w.br) }

func (w *wireConn) close() error {
	w.closeOnce.Do(func() {
		w.fw.close()
		w.closeErr = w.c.Close()
	})
	return w.closeErr
}

// Client is a connection to a Placeless server mirroring the local
// Space API. Safe for concurrent use.
//
// Failure model: when the connection breaks, every pending call fails
// with ErrDisconnected and — with WithReconnect — a background dialer
// re-establishes the wire. Each new connection bumps the epoch;
// consumers that depend on the server-push invalidation stream (the
// remote cache) must treat everything learned under an older epoch as
// suspect, because pushes may have been lost while disconnected.
//
// Pushes share the connection with responses and are applied where they
// are read: the read loop runs the OnInvalidate handler before it
// decodes the next frame, so a response is delivered only after every
// push the server sent ahead of it.
type Client struct {
	addr string
	cfg  dialConfig
	rng  *rand.Rand // backoff jitter; only touched by the single reconnect loop

	framesBatched atomic.Int64 // frames coalesced into multi-frame writevs

	mu           sync.Mutex
	wc           *wireConn // nil while disconnected
	state        ConnState
	epoch        uint64
	nextID       uint64
	pending      map[uint64]*pendingCall
	reconnecting bool
	timeouts     int64
	downSince    time.Time
	onInval      func(doc, user string)
	onState      func(s ConnState, epoch uint64)
}

// Dial connects to a Placeless server at addr. With no options the
// client behaves conservatively: no call deadline, no reconnection —
// the first connection failure leaves it disconnected for good.
// Production callers should enable WithCallTimeout and WithReconnect.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	cfg := defaultDialConfig()
	for _, o := range opts {
		o(&cfg)
	}
	jitterSeed := cfg.jitterSeed
	if !cfg.jitterSeeded {
		jitterSeed = time.Now().UnixNano()
	}
	c := &Client{
		addr:    addr,
		cfg:     cfg,
		state:   StateConnected,
		epoch:   1,
		pending: make(map[uint64]*pendingCall),
		rng:     rand.New(rand.NewSource(jitterSeed)),
	}
	wc, err := c.connect()
	if err != nil {
		return nil, err
	}
	c.wc = wc
	go c.readLoop(wc)
	return c, nil
}

// connect dials and runs the wire handshake. A peer that accepts the
// connection but does not ack yields ErrHandshake.
func (c *Client) connect() (*wireConn, error) {
	conn, err := c.cfg.dialer(c.addr, c.cfg.dialTimeout)
	if err != nil {
		return nil, err
	}
	wc, err := c.handshake(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	return wc, nil
}

// handshake sends the magic preamble and waits (bounded by the dial
// timeout) for the server's ack.
func (c *Client) handshake(conn net.Conn) (*wireConn, error) {
	if c.cfg.dialTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(c.cfg.dialTimeout))
	}
	if _, err := conn.Write(helloMagic[:]); err != nil {
		return nil, err
	}
	var ack [len(helloAck)]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return nil, err
	}
	if ack != helloAck {
		return nil, errors.New("unexpected handshake ack")
	}
	_ = conn.SetDeadline(time.Time{})
	// 8 KiB: headers and small frames decode from the buffered window,
	// while blob bodies larger than the buffer take bufio's large-read
	// bypass straight into the response allocation — no staging copy.
	w := &wireConn{c: conn, br: bufio.NewReaderSize(conn, 8<<10)}
	w.fw = newFrameWriter(conn, c.cfg.writeTimeout, &c.framesBatched, nil,
		func(error) { c.connFailed(w) })
	return w, nil
}

// FramesBatched returns how many outbound frames were coalesced into
// multi-frame writev batches by the connection writer — the pipelining
// win made visible for metrics and benchmarks.
func (c *Client) FramesBatched() int64 { return c.framesBatched.Load() }

// OnInvalidate sets the handler for server-pushed invalidations,
// replacing any earlier one. user == "" means every user's version of
// doc is affected. The handler runs on the connection's read loop, in
// wire order, before the next frame is decoded: it must not block and
// must not call the client. A handler that parks holds back every
// response behind its push, and with WithCallTimeout those calls fail
// with ErrTimeout and the connection is reset. A reset connection's
// last push may still be in the handler when the next connection's
// first arrives, so the handler must be safe for concurrent use.
func (c *Client) OnInvalidate(fn func(doc, user string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onInval = fn
}

// OnStateChange sets the handler for connection state transitions
// (connected → disconnected → connected …, and finally closed),
// replacing any earlier one. It gets the new state and the connection
// epoch; a transition to StateConnected is a reconnect and carries the
// new epoch. It runs outside the client lock — for a reconnect on the
// reconnect goroutine, after the new read loop is live, so it may
// issue calls on the fresh connection — and must not block for long.
func (c *Client) OnStateChange(fn func(s ConnState, epoch uint64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onState = fn
}

// State reports the current connection state.
func (c *Client) State() ConnState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Epoch returns the connection epoch: 1 for the initial connection,
// incremented by every successful reconnect, so Epoch()-1 is the
// number of reconnections.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Timeouts returns how many calls failed with ErrTimeout.
func (c *Client) Timeouts() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timeouts
}

// DownSince returns when the current disconnection began (zero time
// while connected or closed-before-ever-disconnecting).
func (c *Client) DownSince() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == StateDisconnected {
		return c.downSince
	}
	return time.Time{}
}

// readLoop demultiplexes responses and notifications for one
// connection; it exits (via connFailed) when the connection dies.
func (c *Client) readLoop(wc *wireConn) {
	for {
		resp, err := wc.readResponse()
		if err != nil {
			c.connFailed(wc)
			return
		}
		if resp.ID == 0 {
			c.mu.Lock()
			fn := c.onInval
			c.mu.Unlock()
			if fn != nil {
				fn(resp.NotifyDoc, resp.NotifyUser)
			}
			continue
		}
		c.mu.Lock()
		pc := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if pc != nil {
			pc.ch <- resp
		}
	}
}

// connFailed retires a broken connection: pending calls fail with a
// typed error, the state flips to disconnected, and (when enabled) the
// background reconnector starts. Safe to call from multiple goroutines
// and multiple times; only the first caller for a given connection
// does the work.
func (c *Client) connFailed(wc *wireConn) {
	c.mu.Lock()
	if c.wc != wc {
		c.mu.Unlock()
		wc.close()
		return
	}
	c.wc = nil
	failErr := error(ErrDisconnected)
	newState := StateDisconnected
	if c.state == StateClosed {
		failErr = ErrClientClosed
		newState = StateClosed
	}
	for id, pc := range c.pending {
		pc.err = failErr
		close(pc.ch)
		delete(c.pending, id)
	}
	var stateFn func(ConnState, uint64)
	if c.state != newState {
		c.state = newState
		c.downSince = time.Now()
		stateFn = c.onState
	}
	epoch := c.epoch
	startReconnect := newState == StateDisconnected && c.cfg.reconnect && !c.reconnecting
	if startReconnect {
		c.reconnecting = true
	}
	c.mu.Unlock()
	wc.close()
	if stateFn != nil {
		stateFn(newState, epoch)
	}
	if startReconnect {
		go c.reconnectLoop()
	}
}

// reconnectLoop redials with exponential backoff plus jitter until a
// connection is established or the client is closed.
func (c *Client) reconnectLoop() {
	backoff := c.cfg.backoffBase
	for {
		c.mu.Lock()
		if c.state == StateClosed {
			c.reconnecting = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		wc, err := c.connect()
		if err == nil {
			c.mu.Lock()
			if c.state == StateClosed {
				c.reconnecting = false
				c.mu.Unlock()
				wc.close()
				return
			}
			c.wc = wc
			c.epoch++
			epoch := c.epoch
			c.state = StateConnected
			c.reconnecting = false
			stateFn := c.onState
			c.mu.Unlock()
			go c.readLoop(wc)
			if stateFn != nil {
				stateFn(StateConnected, epoch)
			}
			return
		}

		// Full jitter on top of the exponential base spreads a fleet
		// of clients reconnecting to a restarted server over time.
		sleep := backoff + time.Duration(c.rng.Int63n(int64(backoff)+1))
		time.Sleep(sleep)
		backoff *= 2
		if backoff > c.cfg.backoffMax {
			backoff = c.cfg.backoffMax
		}
	}
}

// call performs one request/response round trip, honoring the
// configured call deadline even when the connection is wedged (the
// server accepted the request but will never answer).
func (c *Client) call(req *Request) (*Response, error) {
	c.mu.Lock()
	if c.state == StateClosed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	wc := c.wc
	if wc == nil {
		c.mu.Unlock()
		return nil, ErrDisconnected
	}
	c.nextID++
	req.ID = c.nextID
	pc := &pendingCall{ch: make(chan *Response, 1)}
	c.pending[req.ID] = pc
	c.mu.Unlock()

	if err := wc.sendRequest(req); err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		closed := c.state == StateClosed
		c.mu.Unlock()
		if errors.Is(err, ErrTooLarge) {
			return nil, err // nothing was sent: the wire is fine
		}
		c.connFailed(wc)
		if closed {
			return nil, ErrClientClosed
		}
		return nil, fmt.Errorf("%w: %v", ErrDisconnected, err)
	}

	var timeout <-chan time.Time
	if c.cfg.callTimeout > 0 {
		t := time.NewTimer(c.cfg.callTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case resp, ok := <-pc.ch:
		if !ok {
			if pc.err != nil {
				return nil, pc.err
			}
			return nil, ErrClientClosed
		}
		if resp.Err != "" {
			return resp, answerErr(resp.Err)
		}
		return resp, nil
	case <-timeout:
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.timeouts++
		c.mu.Unlock()
		// A response that never arrives means the connection cannot
		// be trusted (responses and invalidation pushes share it):
		// reset it so the reconnect path takes over instead of
		// leaving a zombie link up.
		c.connFailed(wc)
		return nil, ErrTimeout
	}
}

// answerErr is the call error for an error frame's text: the server's
// own refusal of an answer too large to frame wraps ErrAnswerTooLarge
// and keeps its text, which already names the package; any other text
// is prefixed with it.
func answerErr(text string) error {
	if rest, ok := strings.CutPrefix(text, ErrTooLarge.Error()); ok {
		return fmt.Errorf("%w%s", ErrAnswerTooLarge, rest)
	}
	return fmt.Errorf("server: %s", text)
}

// Close tears down the connection and stops the background machinery.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.state == StateClosed {
		c.mu.Unlock()
		return nil
	}
	c.state = StateClosed
	wc := c.wc
	c.wc = nil
	for id, pc := range c.pending {
		pc.err = ErrClientClosed
		close(pc.ch)
		delete(c.pending, id)
	}
	stateFn, epoch := c.onState, c.epoch
	c.mu.Unlock()

	var err error
	if wc != nil {
		err = wc.close()
	}
	if stateFn != nil {
		stateFn(StateClosed, epoch)
	}
	return err
}

// Read executes the remote read path.
func (c *Client) Read(doc, user string) ([]byte, ReadMeta, error) {
	resp, err := c.call(&Request{Op: OpRead, Doc: doc, User: user})
	if err != nil {
		return nil, ReadMeta{}, err
	}
	return resp.Body, readMeta(resp), nil
}

// ReadSubscribe is Read for a caller that will cache the answer; the
// remote cache sends every miss this way. The one frame also asks the
// server to ensure this connection's notifiers for (doc, user) before
// it executes the read, so every change after the returned bytes is
// pushed to OnInvalidate; on a key the connection is subscribed to
// already, that is a lookup at the server. subscribed is false when the
// server could not install them — the document or the user's reference
// does not exist yet — in which case the bytes are good for this answer
// only and must not be cached. Like any subscription it dies with the
// connection.
func (c *Client) ReadSubscribe(doc, user string) (data []byte, meta ReadMeta, subscribed bool, err error) {
	resp, err := c.call(&Request{Op: OpRead, Doc: doc, User: user, Subscribe: true})
	if err != nil {
		return nil, ReadMeta{}, false, err
	}
	return resp.Body, readMeta(resp), !resp.SubscribeFailed, nil
}

// ReadInto is Read followed by a copy of the body into buf when buf has
// capacity for it; the returned slice then aliases buf. When buf is too
// small the body is returned in its own allocation and buf is unused;
// callers must therefore use the returned slice, not buf. buf must not
// be read, written, or handed to another ReadInto until the call
// returns; on error its contents are undefined.
//
// Deprecated: kept only for its call in bench/rungs.go; use Read.
func (c *Client) ReadInto(doc, user string, buf []byte) ([]byte, ReadMeta, error) {
	data, meta, err := c.Read(doc, user)
	if err != nil || cap(buf) < len(data) {
		return data, meta, err
	}
	return append(buf[:0], data...), meta, nil
}

// Write executes the remote write path.
func (c *Client) Write(doc, user string, data []byte) error {
	_, err := c.call(&Request{Op: OpWrite, Doc: doc, User: user, Body: data})
	return err
}

// CreateDocument registers a document with initial content, owned by
// owner, on the server's backing repository.
func (c *Client) CreateDocument(doc, owner string, content []byte) error {
	_, err := c.call(&Request{Op: OpCreateDocument, Doc: doc, User: owner, Body: content})
	return err
}

// AddReference gives user a reference to doc.
func (c *Client) AddReference(doc, user string) error {
	_, err := c.call(&Request{Op: OpAddReference, Doc: doc, User: user})
	return err
}

// Attach attaches a standard property by spec (see ParsePropertySpec);
// personal selects the reference level.
func (c *Client) Attach(doc, user string, personal bool, spec string) error {
	_, err := c.call(&Request{Op: OpAttach, Doc: doc, User: user, Personal: personal, Property: spec})
	return err
}

// Detach removes the named property.
func (c *Client) Detach(doc, user string, personal bool, name string) error {
	_, err := c.call(&Request{Op: OpDetach, Doc: doc, User: user, Personal: personal, Property: name})
	return err
}

// AttachStatic attaches a static label.
func (c *Client) AttachStatic(doc, user string, personal bool, key, value string) error {
	_, err := c.call(&Request{Op: OpAttachStatic, Doc: doc, User: user, Personal: personal, Property: key, Value: value})
	return err
}

// Subscribe registers for invalidation pushes for (doc, user) without
// reading it. Subscriptions are per connection and die with it. A cache
// subscribes with every miss instead (ReadSubscribe).
func (c *Client) Subscribe(doc, user string) error {
	_, err := c.call(&Request{Op: OpSubscribe, Doc: doc, User: user})
	return err
}

// ForwardEvent redelivers an operation event by kind name (e.g.
// "getInputStream").
func (c *Client) ForwardEvent(doc, user, kind string) error {
	_, err := c.call(&Request{Op: OpForwardEvent, Doc: doc, User: user, Value: kind})
	return err
}

// ListActives lists active property names at a node.
func (c *Client) ListActives(doc, user string, personal bool) ([]string, error) {
	resp, err := c.call(&Request{Op: OpListActives, Doc: doc, User: user, Personal: personal})
	if err != nil {
		return nil, err
	}
	return resp.List, nil
}

// Describe returns a rendered configuration summary of a document.
func (c *Client) Describe(doc string) (string, error) {
	resp, err := c.call(&Request{Op: OpDescribe, Doc: doc})
	if err != nil {
		return "", err
	}
	if len(resp.List) != 1 {
		return "", fmt.Errorf("server: bad describe answer: %d strings", len(resp.List))
	}
	return resp.List[0], nil
}

// Find lists documents visible to user carrying the static property
// key (and value, when non-empty) — Placeless's property-based
// document organization over the wire. Each field travels as its own
// string, so values containing tabs or newlines round-trip intact.
func (c *Client) Find(user, key, value string) ([]Match, error) {
	list, err := c.list(&Request{Op: OpFind, User: user, Property: key, Value: value}, 3)
	var matches []Match
	for i := 0; i < len(list); i += 3 {
		matches = append(matches, Match{Doc: list[i], Value: list[i+1], Level: list[i+2]})
	}
	return matches, err
}

// Stats returns server counters.
func (c *Client) Stats() (map[string]int64, error) {
	list, err := c.list(&Request{Op: OpStats}, 2)
	stats := make(map[string]int64, len(list)/2)
	for i := 0; i < len(list); i += 2 {
		if stats[list[i]], err = strconv.ParseInt(list[i+1], 10, 64); err != nil {
			return nil, fmt.Errorf("server: bad stats answer: %w", err)
		}
	}
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// list makes a structured call whose answer is records of per strings
// each. A list that does not divide into them fails this call only.
func (c *Client) list(req *Request, per int) ([]string, error) {
	resp, err := c.call(req)
	if err != nil {
		return nil, err
	}
	if len(resp.List)%per != 0 {
		return nil, fmt.Errorf("server: bad %v answer: %d strings, not records of %d", req.Op, len(resp.List), per)
	}
	return resp.List, nil
}
