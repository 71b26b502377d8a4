package server

import (
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/docspace"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

// chaosServer starts a server whose space and backing outlive it, so a
// test can kill it and bring a fresh instance up on the same address —
// the crash/restart cycle the resilience machinery exists for.
type chaosServer struct {
	t       *testing.T
	space   *docspace.Space
	backing repo.Repository
	addr    string

	srv  *Server
	done chan error
}

func newChaosServer(t *testing.T) *chaosServer {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	cs := &chaosServer{
		t:       t,
		space:   docspace.New(clk, nil),
		backing: repo.NewMem("srv", clk, simnet.NewPath("loop", 1)),
	}
	srv := New(cs.space, cs.backing)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	for i := 0; i < 200; i++ {
		if a := srv.Addr(); a != nil {
			cs.addr = a.String()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if cs.addr == "" {
		t.Fatal("server did not start")
	}
	cs.srv, cs.done = srv, done
	t.Cleanup(func() { cs.kill() })
	return cs
}

// kill stops the current server instance (idempotent).
func (cs *chaosServer) kill() {
	if cs.srv == nil {
		return
	}
	cs.srv.Close()
	<-cs.done
	cs.srv = nil
}

// restart brings a new server instance up on the original address. The
// space survives in-process — like a server whose durable state
// outlives its crash — so writes made while it was down are visible
// (and their invalidations were lost).
func (cs *chaosServer) restart() {
	cs.t.Helper()
	cs.kill()
	var ln net.Listener
	var err error
	for i := 0; i < 200; i++ {
		if ln, err = net.Listen("tcp", cs.addr); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		cs.t.Fatalf("relisten on %s: %v", cs.addr, err)
	}
	srv := New(cs.space, cs.backing)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	cs.srv, cs.done = srv, done
}

// waitCond polls cond until true or the deadline.
func waitCond(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// A server that accepts the connection and the request but never
// answers must not wedge the client forever: the call deadline fires,
// the call returns the typed ErrTimeout, and the connection is retired.
func TestChaosWedgedServerCallTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var held []net.Conn
	var mu sync.Mutex
	defer func() {
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
			// Complete the handshake, then never read, never answer.
			var magic [len(helloMagic)]byte
			if _, err := io.ReadFull(c, magic[:]); err == nil {
				_, _ = c.Write(helloAck[:])
			}
		}
	}()

	const callTimeout = 150 * time.Millisecond
	c, err := Dial(ln.Addr().String(), WithCallTimeout(callTimeout))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, _, err = c.Read("d", "u")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("wedged call returned %v, want ErrTimeout", err)
	}
	// The deadline is the whole wait: not cut short, not overrun.
	if elapsed := time.Since(start); elapsed < callTimeout || elapsed > 2*time.Second {
		t.Fatalf("deadline %v not enforced: call took %v", callTimeout, elapsed)
	}
	if c.Timeouts() != 1 {
		t.Fatalf("Timeouts = %d, want 1", c.Timeouts())
	}
	// The connection that swallowed a request cannot be trusted for
	// invalidation pushes either; it must have been retired.
	if c.State() != StateDisconnected {
		t.Fatalf("state after timeout = %v, want disconnected", c.State())
	}
	if _, _, err := c.Read("d", "u"); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("call on downed client returned %v, want ErrDisconnected", err)
	}
}

// Kill the server mid-session: the client must notice, back off,
// redial, and come back with a bumped epoch once the server returns.
func TestChaosReconnectAcrossRestart(t *testing.T) {
	cs := newChaosServer(t)
	c, err := Dial(cs.addr,
		WithReconnect(5*time.Millisecond, 100*time.Millisecond),
		WithCallTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.CreateDocument("d", "u", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 1 {
		t.Fatalf("initial epoch = %d", c.Epoch())
	}

	cs.kill()
	waitCond(t, 5*time.Second, func() bool { return c.State() == StateDisconnected })
	if _, _, err := c.Read("d", "u"); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("read while down returned %v, want ErrDisconnected", err)
	}

	cs.restart()
	waitCond(t, 5*time.Second, func() bool { return c.State() == StateConnected })
	if c.Epoch() != 2 {
		t.Fatalf("epoch after restart = %d, want 2 (one reconnect)", c.Epoch())
	}
	data, _, err := c.Read("d", "u")
	if err != nil || string(data) != "v1" {
		t.Fatalf("read after reconnect = %q, %v", data, err)
	}
}

// The OnInvalidate handler runs on the read loop, so a handler that
// parks holds back every response behind its push. With a call deadline
// that costs one connection, not the client: the call waiting behind the
// parked push fails with ErrTimeout, the connection is reset, the client
// reconnects, and nothing hangs. A handler that keeps the contract sees
// pushes in wire arrival order.
func TestChaosBlockingInvalHandler(t *testing.T) {
	_, c, space := testServer(t,
		WithCallTimeout(200*time.Millisecond),
		WithReconnect(5*time.Millisecond, 50*time.Millisecond))
	subscribe := func(ids ...string) {
		t.Helper()
		for _, id := range ids {
			if err := c.Subscribe(id, "u"); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range []string{"d1", "d2"} {
		if err := c.CreateDocument(id, "u", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	subscribe("d1")

	parked := make(chan struct{})
	release := make(chan struct{})
	returned := make(chan struct{})
	c.OnInvalidate(func(doc, user string) {
		close(parked)
		<-release
		close(returned)
	})
	if err := space.WriteDocument("d1", "u", []byte("y")); err != nil {
		t.Fatal(err)
	}
	<-parked

	// The Stats response sits behind the parked push on the wire.
	if _, err := c.Stats(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("call behind a parked push returned %v, want ErrTimeout", err)
	}
	waitCond(t, 5*time.Second, func() bool { return c.State() == StateConnected && c.Epoch() == 2 })
	if _, err := c.Stats(); err != nil {
		t.Fatalf("call on the reconnected wire: %v", err)
	}
	close(release)
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("parked handler never returned")
	}

	// Subscriptions died with the reset connection; the recording
	// handler sees the pushes of the new one in wire arrival order.
	var mu sync.Mutex
	var got []string
	c.OnInvalidate(func(doc, user string) {
		mu.Lock()
		got = append(got, doc)
		mu.Unlock()
	})
	subscribe("d1", "d2")
	for _, id := range []string{"d2", "d1", "d2"} {
		if err := space.WriteDocument(id, "u", []byte(id+"!")); err != nil {
			t.Fatal(err)
		}
	}
	// Every push the server sent ahead of this response is applied.
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, []string{"d2", "d1", "d2"}) {
		t.Fatalf("delivery order = %v, want [d2 d1 d2]", got)
	}
}

// Find results carry values as struct fields on the wire; tabs and
// newlines in property values must round-trip byte-for-byte.
func TestFindRoundTripTabNewline(t *testing.T) {
	_, c, _ := testServer(t)
	const hairy = "a\tb\nc\td"
	if err := c.CreateDocument("d", "u", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachStatic("d", "u", false, "topic", hairy); err != nil {
		t.Fatal(err)
	}
	matches, err := c.Find("u", "topic", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("matches = %+v, want 1", matches)
	}
	if matches[0].Doc != "d" || matches[0].Value != hairy {
		t.Fatalf("match = %+v, value corrupted on the wire", matches[0])
	}
	// Exact-value search must also survive the hairy value.
	matches, err = c.Find("u", "topic", hairy)
	if err != nil || len(matches) != 1 {
		t.Fatalf("exact-value find = %+v, %v", matches, err)
	}
}

// Concurrent callers racing a connection drop must each get a prompt
// typed error or a valid response — never a hang.
func TestChaosConcurrentCallsDuringDrop(t *testing.T) {
	cs := newChaosServer(t)
	c, err := Dial(cs.addr,
		WithReconnect(5*time.Millisecond, 100*time.Millisecond),
		WithCallTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateDocument("d", "u", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	const K = 8
	var wg sync.WaitGroup
	errCh := make(chan error, K*64)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 64; j++ {
				_, _, err := c.Read("d", "u")
				if err != nil &&
					!errors.Is(err, ErrDisconnected) &&
					!errors.Is(err, ErrTimeout) &&
					!errors.Is(err, ErrClientClosed) {
					errCh <- err
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	cs.kill()
	time.Sleep(50 * time.Millisecond)
	cs.restart()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent callers hung across the connection drop")
	}
	close(errCh)
	for err := range errCh {
		t.Fatalf("unexpected (untyped) error during drop: %v", err)
	}
}
