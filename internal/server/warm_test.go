package server

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

// Ack, then warm: a successful OpWrite is answered first, and then the
// handler re-derives the shared prefix the write stranded, so the next
// reader of the document resumes from a resident universal cut instead
// of running the universal chain inside its own request.

// gate holds the universal transform of a warmRig once: entered closes
// when a transform reaches it, and the transform returns on open.
type gate struct {
	entered, release chan struct{}
	once             sync.Once
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// warmRig is a memoizing cached origin over loopback: document "d",
// created by "owner" and referenced by "reader", carries one universal,
// memoizable upper-casing transform that can be held by a gate.
type warmRig struct {
	space *docspace.Space
	cache *core.Cache
	o     *obs.Observer
	srv   *Server
	c     *Client

	held atomic.Pointer[gate] // consumed by the next transform run
}

func newWarmRig(t *testing.T, memoize bool) *warmRig {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	r := &warmRig{
		space: docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("loop", 2))),
		o:     obs.NewObserver(),
	}
	r.cache = core.New(r.space, core.Options{Name: "warm-test", Capacity: 1 << 20, Memoize: memoize, Observer: r.o})
	t.Cleanup(r.cache.Close)
	r.srv = NewCached(r.space, repo.NewMem("srv", clk, simnet.NewPath("loop", 1)), r.cache)
	r.c = serveAndDial(t, r.srv)
	if err := r.c.CreateDocument("d", "owner", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := r.c.AddReference("d", "reader"); err != nil {
		t.Fatal(err)
	}
	upper := &property.Transformer{
		Base: property.Base{PropName: "gated-upper"},
		ReadTransform: func(b []byte) []byte {
			if g := r.held.Swap(nil); g != nil {
				close(g.entered)
				<-g.release
			}
			return bytes.ToUpper(b)
		},
		Version: 1,
		MemoID:  "upper",
	}
	if err := r.space.Attach("d", "", docspace.Universal, upper); err != nil {
		t.Fatal(err)
	}
	return r
}

// writeHeld writes v1 as the owner with a gate armed for the next
// transform run, and returns the gate once the write is acknowledged
// and its warm is held inside the universal transform.
func (r *warmRig) writeHeld(t *testing.T) *gate {
	t.Helper()
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(g.open)
	r.held.Store(g)
	wrote := make(chan error, 1)
	go func() { wrote <- r.c.Write("d", "owner", []byte("v1")) }()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no warm followed the write")
	}
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the write was not acknowledged while its warm was held")
	}
	return g
}

func (r *warmRig) read(t *testing.T, c *Client, user, want string) {
	t.Helper()
	got, _, err := c.Read("d", user)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("%s reads %q, want %q", user, got, want)
	}
}

func (r *warmRig) reads() int64 {
	var n int64
	for _, v := range r.o.VerdictCounts() {
		n += v
	}
	return n
}

func (r *warmRig) requests() int64 {
	n, _, _ := r.srv.Counters()
	return n
}

// quiesce closes every client and waits until the server has torn
// their connections down. Teardown runs after a connection's handlers
// have returned, warms included, so every warm the clients' requests
// started is over.
func (r *warmRig) quiesce(t *testing.T, cs ...*Client) {
	t.Helper()
	for _, c := range cs {
		c.Close()
	}
	waitFor(t, "the server to tear the connections down", func() bool {
		_, _, conns := r.srv.Counters()
		return conns == 0
	})
}

// dial opens another client on the rig's server.
func (r *warmRig) dial(t *testing.T) *Client {
	t.Helper()
	c, err := Dial(r.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// cutFollowerParked reports whether some goroutine is blocked inside
// core's cut lookup without leading the cut: a follower waiting on
// another goroutine's flight for that cut.
func cutFollowerParked() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("core.(*Cache).intermediate(")) && !bytes.Contains(g, []byte("core.(*Cache).leadCut(")) {
			return true
		}
	}
	return false
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriteAckPrecedesWarm: the write is answered while the warm it
// set off is still inside the universal transform, and the warm is not
// a read — no placeless_reads_total, no stage histogram, no request —
// but one prefetch. Another user's next read then resumes from the
// warmed cut: a memo verdict, and the universal chain ran once for the
// write, not once more for the reader.
func TestWriteAckPrecedesWarm(t *testing.T) {
	r := newWarmRig(t, true)
	r.read(t, r.c, "owner", "V0")
	before := r.cache.Stats()
	reads, requests := r.reads(), r.requests()
	universal := r.o.StageHistogram(obs.StageUniversal).Count()

	r.writeHeld(t).open()
	waitFor(t, "the warm to count", func() bool { return r.cache.Stats().Prefetches > before.Prefetches })
	r.quiesce(t, r.c) // no handler of the write's connection is left running

	if got := r.cache.Stats().Prefetches - before.Prefetches; got != 1 || !r.cache.Contains("d", "owner") {
		t.Fatalf("Prefetches moved by %d, want 1 warm that installed", got)
	}
	if got := r.reads(); got != reads {
		t.Fatalf("placeless_reads_total %d → %d: the warm was counted as a read", reads, got)
	}
	if got := r.o.StageHistogram(obs.StageUniversal).Count(); got != universal {
		t.Fatalf("universal stage histogram %d → %d: the warm was observed as a read", universal, got)
	}
	if got := r.requests(); got != requests+1 {
		t.Fatalf("requests %d → %d, want the write alone", requests, got)
	}

	memo := r.o.VerdictCounts()[obs.VerdictMemo]
	r.read(t, r.dial(t), "reader", "V1")
	if got := r.o.VerdictCounts()[obs.VerdictMemo]; got != memo+1 {
		t.Fatalf("the reader after the warm was not a memo verdict (%v)", r.o.VerdictCounts())
	}
	if got := r.cache.Stats().UniversalStageRuns - before.UniversalStageRuns; got != 1 {
		t.Fatalf("UniversalStageRuns moved by %d after write, warm and read; want 1", got)
	}
}

// TestReaderJoinsWarmInFlight: a reader that arrives while the warm is
// inside the universal transform waits on the warm's cut flight instead
// of running the transform a second time.
func TestReaderJoinsWarmInFlight(t *testing.T) {
	r := newWarmRig(t, true)
	r.read(t, r.c, "owner", "V0")
	before := r.cache.Stats()

	g := r.writeHeld(t)
	done := make(chan error, 1)
	go func() {
		got, _, err := r.c.Read("d", "reader")
		if err == nil && string(got) != "V1" {
			err = fmt.Errorf("reader got %q, want %q", got, "V1")
		}
		done <- err
	}()
	waitFor(t, "the reader to wait on the warm's cut flight", cutFollowerParked)
	g.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := r.cache.Stats()
	if got := st.UniversalStageRuns - before.UniversalStageRuns; got != 1 {
		t.Fatalf("UniversalStageRuns moved by %d; a reader during the warm must join its flight", got)
	}
	if got := st.IntermediateHits - before.IntermediateHits; got != 1 {
		t.Fatalf("IntermediateHits moved by %d, want the reader's one", got)
	}
}

// TestCloseWaitsForWarm: Server.Close returns only once the warm a
// write set off has finished, so a daemon's shutdown does not close the
// cache and store under it.
func TestCloseWaitsForWarm(t *testing.T) {
	r := newWarmRig(t, true)
	r.read(t, r.c, "owner", "V0")
	g := r.writeHeld(t)
	closed := make(chan struct{})
	go func() {
		r.srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a warm was held inside its transform")
	case <-time.After(50 * time.Millisecond):
	}
	g.open()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the warm was let go")
	}
	if got := r.cache.Stats().Prefetches; got != 1 {
		t.Fatalf("Prefetches = %d when Close returned, want the finished warm", got)
	}
}

// TestWarmGate: everything that is not a wire write stranding a
// resident universal cut leaves Prefetches where it was. Each case ends
// by waiting out the connection's handlers and then calling Warm
// directly, which would fire on a mark the case had left behind.
func TestWarmGate(t *testing.T) {
	cases := []struct {
		name    string
		memoize bool
		run     func(t *testing.T, r *warmRig, c *Client)
	}{
		{name: "document never read", memoize: true, run: func(t *testing.T, r *warmRig, c *Client) {
			if err := c.Write("d", "owner", []byte("v1")); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "memoize off", run: func(t *testing.T, r *warmRig, c *Client) {
			r.read(t, c, "owner", "V0")
			if err := c.Write("d", "owner", []byte("v1")); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "personal attach and detach", memoize: true, run: func(t *testing.T, r *warmRig, c *Client) {
			r.read(t, c, "owner", "V0")
			if err := c.Attach("d", "owner", true, "spell-correct"); err != nil {
				t.Fatal(err)
			}
			if err := c.Detach("d", "owner", true, "spell-correct"); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "universal attach", memoize: true, run: func(t *testing.T, r *warmRig, c *Client) {
			r.read(t, c, "owner", "V0")
			if err := c.Attach("d", "owner", false, "spell-correct"); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "apply, the path journal replay takes", memoize: true, run: func(t *testing.T, r *warmRig, c *Client) {
			r.read(t, c, "owner", "V0")
			if resp := r.srv.apply(&Request{Op: OpWrite, Doc: "d", User: "owner", Body: []byte("v1")}); resp.Err != "" {
				t.Fatal(resp.Err)
			}
			if got := r.cache.Stats().Prefetches; got != 0 {
				t.Fatalf("apply's write warmed: Prefetches = %d", got)
			}
			// The write did leave the mark a handler would have acted on;
			// consume it, so the final check sees only what apply did.
			r.cache.Warm("d", "owner")
			if got := r.cache.Stats().Prefetches; got != 1 {
				t.Fatalf("the mark apply's write left did not warm: Prefetches = %d", got)
			}
		}},
		{name: "in-process Cache.Write", memoize: true, run: func(t *testing.T, r *warmRig, c *Client) {
			r.read(t, c, "owner", "V0")
			if err := r.cache.Write("d", "owner", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if r.cache.Contains("d", "owner") || r.cache.Stats().Prefetches != 0 {
				t.Fatal("an in-process write warmed")
			}
			miss := r.o.VerdictCounts()[obs.VerdictMiss]
			r.read(t, c, "reader", "V1")
			if got := r.o.VerdictCounts()[obs.VerdictMiss]; got != miss+1 {
				t.Fatalf("the read after an in-process write was not a miss (%v)", r.o.VerdictCounts())
			}
			// The write marked the document; only a wire handler acts on
			// the mark, so consume it here for the final check.
			r.cache.Warm("d", "owner")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newWarmRig(t, tc.memoize)
			c := r.dial(t)
			tc.run(t, r, c)
			want := r.cache.Stats().Prefetches
			r.quiesce(t, c, r.c)
			r.cache.Warm("d", "owner")
			if got := r.cache.Stats().Prefetches; got != want {
				t.Fatalf("Prefetches %d → %d", want, got)
			}
		})
	}
}
