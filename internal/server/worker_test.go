package server

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

// A connection's requests that miss the decode loop's fast hit run on
// handler workers: goroutines that park between requests, at most
// maxConcurrentHandlers of them per connection.

// handlerWorkers counts the goroutines inside a handler worker, parked
// or running, across every connection of the process.
func handlerWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return bytes.Count(buf, []byte("server.(*serverConn).work("))
}

// noWorkers waits until no handler worker is left from earlier tests:
// each test's server is closed when it ends, and a worker that has
// just called its WaitGroup's Done may still be on its way out.
func noWorkers(t *testing.T) {
	t.Helper()
	waitFor(t, "earlier tests' handler workers to exit", func() bool { return handlerWorkers() == 0 })
}

// heldProperty is a universal read transform that reports each run on
// entered and returns once release yields.
func heldProperty(entered chan<- struct{}, release <-chan struct{}) *property.Transformer {
	return &property.Transformer{
		Base: property.Base{PropName: "held"},
		ReadTransform: func(b []byte) []byte {
			entered <- struct{}{}
			<-release
			return b
		},
		Version: 1,
	}
}

// heldReads starts n concurrent reads of doc on c and returns a
// channel that yields each one's error as it completes.
func heldReads(c *Client, doc string, n int) <-chan error {
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, _, err := c.Read(doc, "alice")
			done <- err
		}()
	}
	return done
}

// TestHandlerWorkerReusedAcrossSequentialMisses: a lockstep caller's
// creates and misses all run on the one worker its first request
// started.
func TestHandlerWorkerReusedAcrossSequentialMisses(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	space := docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("loop", 2)))
	cache := core.New(space, core.Options{Name: "worker-test", Capacity: 1 << 20})
	t.Cleanup(cache.Close)
	noWorkers(t)
	srv := NewCached(space, repo.NewMem("srv", clk, simnet.NewPath("loop", 1)), cache)
	c := serveAndDial(t, srv)
	const docs = 100
	for i := 0; i < docs; i++ {
		doc := fmt.Sprintf("d%03d", i)
		if err := c.CreateDocument(doc, "alice", []byte(doc)); err != nil {
			t.Fatal(err)
		}
		got, _, err := c.Read(doc, "alice")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != doc {
			t.Fatalf("read %s = %q", doc, got)
		}
	}
	if m := cache.Stats().Misses; m != docs {
		t.Fatalf("%d cache misses, want %d", m, docs)
	}
	if n := handlerWorkers(); n != 1 {
		t.Fatalf("%d sequential creates and misses started %d workers, want 1", 2*docs, n)
	}
}

// TestHandlerWorkerBound: with 33 requests held inside a property, 32
// run and the 33rd waits in the decode loop until one of them returns.
func TestHandlerWorkerBound(t *testing.T) {
	noWorkers(t)
	_, c, space := testServer(t)
	if err := c.CreateDocument("d", "alice", []byte("body")); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, maxConcurrentHandlers+1)
	release := make(chan struct{})
	if err := space.Attach("d", "", docspace.Universal, heldProperty(entered, release)); err != nil {
		t.Fatal(err)
	}
	var released sync.Once
	t.Cleanup(func() { released.Do(func() { close(release) }) })

	done := heldReads(c, "d", maxConcurrentHandlers+1)
	for i := 0; i < maxConcurrentHandlers; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d requests reached the property", i, maxConcurrentHandlers)
		}
	}
	select {
	case <-entered:
		t.Fatalf("request %d ran with %d handlers busy", maxConcurrentHandlers+1, maxConcurrentHandlers)
	case err := <-done:
		t.Fatalf("a held read returned: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if n := handlerWorkers(); n != maxConcurrentHandlers {
		t.Fatalf("%d workers, want %d", n, maxConcurrentHandlers)
	}

	release <- struct{}{} // one read returns ...
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered: // ... and the waiting one takes its worker
	case <-time.After(5 * time.Second):
		t.Fatal("the waiting request did not run after a handler returned")
	}
	released.Do(func() { close(release) })
	for i := 0; i < maxConcurrentHandlers; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if n := handlerWorkers(); n != maxConcurrentHandlers {
		t.Fatalf("%d workers after the burst, want %d", n, maxConcurrentHandlers)
	}
}

// TestHandlerWorkersGoneAfterClose: Server.Close returns with no
// worker left, parked or running.
func TestHandlerWorkersGoneAfterClose(t *testing.T) {
	noWorkers(t)
	srv, c, space := testServer(t)
	if err := c.CreateDocument("d", "alice", []byte("body")); err != nil {
		t.Fatal(err)
	}
	const burst = 4
	entered := make(chan struct{}, burst)
	release := make(chan struct{})
	if err := space.Attach("d", "", docspace.Universal, heldProperty(entered, release)); err != nil {
		t.Fatal(err)
	}
	done := heldReads(c, "d", burst)
	for i := 0; i < burst; i++ {
		<-entered
	}
	close(release)
	for i := 0; i < burst; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if n := handlerWorkers(); n != burst {
		t.Fatalf("%d workers parked, want %d", n, burst)
	}

	// A second connection's worker goes too.
	c2, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, err := c2.Read("d", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the workers to exit", func() bool { return handlerWorkers() == 0 })
}
