package remote

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/event"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/simnet"
)

var epoch = time.Date(1999, time.March, 28, 0, 0, 0, 0, time.UTC)

// rig is a running server plus a cached client.
type rig struct {
	srv    *server.Server
	client *server.Client
	cache  *Cache
	space  *docspace.Space
	feed   *repo.LiveFeed
}

func newRig(t *testing.T, opts Options) *rig {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	backing := repo.NewMem("srv", clk, simnet.NewPath("loop", 1))
	space := docspace.New(clk, nil)
	srv := server.New(space, backing)
	client := serveAndDial(t, srv)
	return &rig{
		srv: srv, client: client, space: space,
		feed:  repo.NewLiveFeed("cam", clk, simnet.NewPath("loop", 2), 64),
		cache: New(client, opts),
	}
}

// serveAndDial serves srv on a loopback listener and returns a client
// connected to it; both are torn down with the test or benchmark.
func serveAndDial(tb testing.TB, srv *server.Server) *server.Client {
	tb.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 200; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if addr == "" {
		tb.Fatal("server did not start")
	}
	client, err := server.Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		client.Close()
		srv.Close()
		<-done
	})
	return client
}

// waitFor polls cond until true or the deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestMissThenHit(t *testing.T) {
	r := newRig(t, Options{})
	if err := r.client.CreateDocument("d", "u", []byte("remote bits")); err != nil {
		t.Fatal(err)
	}
	a, err := r.cache.Read("d", "u")
	if err != nil || string(a) != "remote bits" {
		t.Fatalf("read = %q, %v", a, err)
	}
	b, _ := r.cache.Read("d", "u")
	if !bytes.Equal(a, b) {
		t.Fatal("hit content differs")
	}
	st := r.cache.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPushInvalidationOnRemoteWrite(t *testing.T) {
	r := newRig(t, Options{})
	r.client.CreateDocument("d", "eyal", []byte("v1"))
	r.client.AddReference("d", "doug")
	if _, err := r.cache.Read("d", "eyal"); err != nil {
		t.Fatal(err)
	}
	// Doug writes through the same cache/client: the server's
	// notifier pushes back the invalidation.
	if err := r.cache.Write("d", "doug", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return !r.cache.Contains("d", "eyal") })
	got, _ := r.cache.Read("d", "eyal")
	if string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
	if st := r.cache.Stats(); st.Invalidations == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestReadBeforeCreateIsInvalidated: a read of a document that does not
// exist yet fails its subscription; the read after the create must
// subscribe for real, so a later out-of-band write still reaches the
// cache.
func TestReadBeforeCreateIsInvalidated(t *testing.T) {
	r := newRig(t, Options{})
	if _, err := r.cache.Read("d", "u"); err == nil {
		t.Fatal("read of a missing document succeeded")
	}
	if err := r.client.CreateDocument("d", "u", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got, err := r.cache.Read("d", "u"); err != nil || string(got) != "v1" {
		t.Fatalf("read after create = %q, %v", got, err)
	}
	if err := r.space.WriteDocument("d", "u", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, err := r.cache.Read("d", "u")
		return err == nil && string(got) == "v2"
	})
}

func TestPushInvalidationOnPropertyChange(t *testing.T) {
	r := newRig(t, Options{})
	r.client.CreateDocument("d", "u", []byte("the paper"))
	r.cache.Read("d", "u")
	if err := r.client.Attach("d", "u", true, "translate-fr"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return !r.cache.Contains("d", "u") })
	got, _ := r.cache.Read("d", "u")
	if string(got) != "le papier" {
		t.Fatalf("got %q", got)
	}
}

func TestUncacheableNotStored(t *testing.T) {
	r := newRig(t, Options{})
	// Create a live-feed document server-side.
	if _, err := r.space.CreateDocument("cam", "u", &property.RepoBitProvider{
		Repo: r.feed, Path: "/c", Vote: property.Uncacheable,
	}); err != nil {
		t.Fatal(err)
	}
	a, err := r.cache.Read("cam", "u")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.cache.Read("cam", "u")
	if bytes.Equal(a, b) {
		t.Fatal("live frames identical — cached?")
	}
	st := r.cache.Stats()
	if st.Uncacheable != 2 || r.cache.Len() != 0 {
		t.Fatalf("stats = %+v len=%d", st, r.cache.Len())
	}
}

func TestCacheWithEventsForwards(t *testing.T) {
	r := newRig(t, Options{})
	r.client.CreateDocument("d", "u", []byte("audited"))
	trail := property.NewAuditTrail()
	if err := r.space.Attach("d", "", docspace.Universal, trail); err != nil {
		t.Fatal(err)
	}
	r.cache.Read("d", "u") // miss
	r.cache.Read("d", "u") // hit: forwards getInputStream
	waitFor(t, func() bool { return len(trail.Records()) >= 2 })
	recs := trail.Records()
	last := recs[len(recs)-1]
	if !last.Forwarded {
		t.Fatalf("records = %+v", recs)
	}
	if st := r.cache.Stats(); st.EventsForwarded != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// heldTrail is an audit trail whose forwarded events wait for release:
// an origin that takes a hit's event longer than the call timeout.
type heldTrail struct {
	*property.AuditTrail
	release chan struct{}
}

func (h heldTrail) OnEvent(ctx *property.EventContext, e event.Event) {
	if e.Detail == "forwarded" {
		<-h.release
	}
	h.AuditTrail.OnEvent(ctx, e)
}

// A CacheWithEvents hit whose event forward fails is not served: the
// read answers ErrDegraded, not the cached bytes, and counts no hit.
func TestCacheWithEventsHitFailsWithItsForward(t *testing.T) {
	r := newChaosRig(t, Options{}, server.WithCallTimeout(100*time.Millisecond))
	held := heldTrail{property.NewAuditTrail(), make(chan struct{})}
	t.Cleanup(func() { close(held.release) }) // before the rig's teardown
	if err := r.client.CreateDocument("d", "u", []byte("audited")); err != nil {
		t.Fatal(err)
	}
	if err := r.space.Attach("d", "", docspace.Universal, held); err != nil {
		t.Fatal(err)
	}
	if _, err := r.cache.Read("d", "u"); err != nil { // miss
		t.Fatal(err)
	}
	if got, err := r.cache.Read("d", "u"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("hit whose forward timed out = %q, %v; want ErrDegraded", got, err)
	}
	if st := r.cache.Stats(); st.Hits != 0 || st.EventsForwarded != 0 {
		t.Fatalf("stats = %+v, want no hit and no forward counted", st)
	}
}

func TestCapacityEviction(t *testing.T) {
	r := newRig(t, Options{Capacity: 2048})
	for _, id := range []string{"a", "b", "c"} {
		if err := r.client.CreateDocument(id, "u", bytes.Repeat([]byte(id), 1000)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.cache.Read(id, "u"); err != nil {
			t.Fatal(err)
		}
	}
	st := r.cache.Stats()
	if st.BytesStored > 2048 {
		t.Fatalf("BytesStored = %d over budget", st.BytesStored)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions")
	}
}

func TestSignatureSharingRemote(t *testing.T) {
	r := newRig(t, Options{})
	r.client.CreateDocument("d", "eyal", []byte("same for all"))
	r.client.AddReference("d", "paul")
	r.cache.Read("d", "eyal")
	r.cache.Read("d", "paul")
	st := r.cache.Stats()
	if r.cache.Len() != 2 || st.BytesStored != int64(len("same for all")) {
		t.Fatalf("len=%d stored=%d", r.cache.Len(), st.BytesStored)
	}
}

func TestTTLDeadlineHonoredRemotely(t *testing.T) {
	// A TTL verifier cannot cross the wire, but its deadline does:
	// the remote cache must expire web-backed entries on schedule.
	clk := clock.NewVirtual(epoch)
	web := repo.NewWeb("web", clk, simnet.NewPath("loop", 3), 30*time.Second, true)
	space := docspace.New(clk, nil)
	srv := server.New(space, repo.NewMem("b", clk, simnet.NewPath("loop", 1)))
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 200; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	client, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		client.Close()
		srv.Close()
		<-done
	}()
	// The remote cache shares the server's virtual clock, so the
	// deadline comparison is exact.
	cache := New(client, Options{Clock: clk})

	web.SetPage("/p", []byte("page v1"))
	if _, err := space.CreateDocument("p", "u", &property.RepoBitProvider{Repo: web, Path: "/p"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Read("p", "u"); err != nil {
		t.Fatal(err)
	}
	// Within the TTL the stale copy is acceptable (web semantics).
	web.SetPage("/p", []byte("page v2"))
	got, _ := cache.Read("p", "u")
	if string(got) != "page v1" {
		t.Fatalf("within TTL got %q", got)
	}
	// Past the deadline the entry must be refetched.
	clk.Advance(31 * time.Second)
	got, err = cache.Read("p", "u")
	if err != nil || string(got) != "page v2" {
		t.Fatalf("after TTL got %q, %v", got, err)
	}
	if st := cache.Stats(); st.TTLExpiries != 1 {
		t.Fatalf("TTLExpiries = %d", st.TTLExpiries)
	}
}

func TestReadErrorPropagates(t *testing.T) {
	r := newRig(t, Options{})
	if _, err := r.cache.Read("ghost", "u"); err == nil {
		t.Fatal("missing doc read succeeded")
	}
}

func TestClosedCache(t *testing.T) {
	r := newRig(t, Options{})
	r.client.CreateDocument("d", "u", []byte("x"))
	r.cache.Read("d", "u")
	r.cache.Close()
	if _, err := r.cache.Read("d", "u"); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
	if err := r.cache.Write("d", "u", nil); err != ErrClosed {
		t.Fatalf("write err = %v", err)
	}
	if r.cache.Len() != 0 {
		t.Fatal("entries survived Close")
	}
}

// TestRemoteSingleFlight: concurrent first accesses to one (doc, user)
// issue exactly one wire read; the followers share the leader's result
// and count as coalesced misses rather than misses.
func TestRemoteSingleFlight(t *testing.T) {
	r := newRig(t, Options{})
	if err := r.client.CreateDocument("d", "u", []byte("shared fetch")); err != nil {
		t.Fatal(err)
	}
	const K = 16
	results := make([][]byte, K)
	errs := make([]error, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.cache.Read("d", "u")
		}(i)
	}
	wg.Wait()
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if string(results[i]) != "shared fetch" {
			t.Fatalf("reader %d got %q", i, results[i])
		}
	}
	st := r.cache.Stats()
	if st.Misses+st.CoalescedMisses+st.Hits != K {
		t.Fatalf("read outcomes don't sum to %d: %+v", K, st)
	}
	if st.Misses > st.CoalescedMisses+st.Hits && st.CoalescedMisses == 0 && st.Hits == 0 {
		// All K raced past each other without coalescing — the flight
		// table is not doing its job. (Timing-tolerant: any nonzero
		// sharing passes; K independent wire reads fails.)
		t.Fatalf("no coalescing or caching across %d concurrent reads: %+v", K, st)
	}
	// Nobody got a private copy: every coalesced follower shares its
	// leader's array and every hit the installed one, so there are no
	// more distinct arrays than wire reads.
	arrays := make(map[*byte]bool)
	for _, res := range results {
		arrays[unsafe.SliceData(res)] = true
	}
	if int64(len(arrays)) > st.Misses {
		t.Fatalf("%d distinct arrays from %d wire reads: a reader was handed a copy (%+v)", len(arrays), st.Misses, st)
	}
}

// TestConcurrentReadsPushesAndFlushes drives the sidecar's table from
// many goroutines at once — hits, coalesced misses, installs that
// evict, document-wide and per-user pushes, reconnect flushes — and
// then holds the table's document index to its entries and its bytes
// to the budget. Run it under -race.
func TestConcurrentReadsPushesAndFlushes(t *testing.T) {
	const docs, users, rounds = 3, 4, 200
	r := newRig(t, Options{Capacity: 3 * 64})
	want := make(map[string]string)
	for d := 0; d < docs; d++ {
		doc := fmt.Sprintf("d%d", d)
		if err := r.client.CreateDocument(doc, "u0", bytes.Repeat([]byte{byte('a' + d)}, 64)); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < users; u++ {
			user := fmt.Sprintf("u%d", u)
			if u > 0 {
				if err := r.client.AddReference(doc, user); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.client.Attach(doc, user, true, "watermark:"+user); err != nil {
				t.Fatal(err)
			}
			body, _, err := r.space.ReadDocument(doc, user)
			if err != nil {
				t.Fatal(err)
			}
			want[doc+"/"+user] = string(body)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				doc, user := fmt.Sprintf("d%d", (g+i)%docs), fmt.Sprintf("u%d", (g*7+i)%users)
				got, err := r.cache.Read(doc, user)
				if err != nil {
					t.Errorf("read %s/%s: %v", doc, user, err)
					return
				}
				if string(got) != want[doc+"/"+user] {
					t.Errorf("read %s/%s = %q, want %q", doc, user, got, want[doc+"/"+user])
					return
				}
				switch i % 17 {
				case 3:
					r.cache.onInvalidate(doc, "")
				case 5:
					r.cache.onInvalidate(doc, user)
				case 11:
					if g == 0 {
						r.cache.onConnState(server.StateConnected, r.client.Epoch())
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := r.cache.tab.Audit(); err != nil {
		t.Fatal(err)
	}
	// Every user's view is distinct (the watermark), so the stored bytes
	// are the sum of the resident views.
	var resident int64
	for k, body := range want {
		doc, user, _ := strings.Cut(k, "/")
		if r.cache.Contains(doc, user) {
			resident += int64(len(body))
		}
	}
	if st := r.cache.Stats(); st.BytesStored != resident || st.Evictions == 0 {
		t.Fatalf("after the churn: %d bytes stored, %d in resident views; %d evictions", st.BytesStored, resident, st.Evictions)
	}
}

// TestHitServesTheInstalledBytes: the sidecar's table keeps the body
// the wire decoded, and a read hands out the table's bytes read-only —
// the miss that installed them and every hit after it return the
// installed blob's own array, with no copy.
func TestHitServesTheInstalledBytes(t *testing.T) {
	r := newRig(t, Options{})
	if err := r.client.CreateDocument("d", "u", []byte("wire body")); err != nil {
		t.Fatal(err)
	}
	miss, err := r.cache.Read("d", "u")
	if err != nil {
		t.Fatal(err)
	}
	hit, err := r.cache.Read("d", "u")
	if err != nil || string(hit) != "wire body" {
		t.Fatalf("hit = %q, %v", hit, err)
	}
	_, body := r.cache.tab.Lookup(core.Key("d", "u"))
	installed := body.Bytes()
	if unsafe.SliceData(hit) != unsafe.SliceData(installed) || unsafe.SliceData(miss) != unsafe.SliceData(installed) {
		t.Fatal("a read returned a copy, not the installed blob's bytes")
	}
	if st := r.cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("want one miss then one hit: %+v", st)
	}
}

// TestWarmHitCopiesNothing: a warm 8 KiB hit allocates nothing the
// size of the body; the one allocation left is the table key.
func TestWarmHitCopiesNothing(t *testing.T) {
	const size = 8 << 10
	r := newRig(t, Options{})
	if err := r.client.CreateDocument("d", "u", make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.cache.Read("d", "u"); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if data, err := r.cache.Read("d", "u"); err != nil || len(data) != size {
			t.Fatalf("read = %d bytes, %v", len(data), err)
		}
	}
	if n := testing.AllocsPerRun(100, read); n > 1 {
		t.Fatalf("a warm hit allocates %v times, want at most 1 (the key)", n)
	}
	const reads = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per >= size/2 {
		t.Fatalf("a warm hit allocates %d bytes of an %d-byte body", per, size)
	}
	if st := r.cache.Stats(); st.Misses != 1 {
		t.Fatalf("%d misses: every measured read must be a hit", st.Misses)
	}
}

// TestWireErrorsComeOutTyped: the cache is the one place a wire error
// is classified, so nothing above it (the cluster router, plcached, the
// simulator) tests for a server.* error. A call that times out or finds
// the wire down comes out as ErrDegraded, a call on a client closed
// underneath the cache as ErrClosed, and the server's own answer as it
// came.
func TestWireErrorsComeOutTyped(t *testing.T) {
	// Every request waits out a real-clock link cost far longer than the
	// clients' call timeout: the server accepts and never answers in time.
	clk := clock.Real{}
	srv := server.New(docspace.New(clk, nil), repo.NewMem("srv", clk, simnet.NewPath("loop", 1)))
	srv.SetLinkCost(300 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	waitFor(t, func() bool { return srv.Addr() != nil })
	dial := func(t *testing.T) (*server.Client, *Cache) {
		t.Helper()
		client, err := server.Dial(srv.Addr().String(), server.WithCallTimeout(30*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		return client, New(client, Options{})
	}
	typed := func(t *testing.T, what string, err, want error, raw error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want errors.Is %v", what, err, want)
		}
		if errors.Is(err, raw) {
			t.Fatalf("%s: err = %v still matches the wire's %v", what, err, raw)
		}
	}

	t.Run("timeout", func(t *testing.T) {
		_, c := dial(t)
		_, err := c.Read("d", "u")
		typed(t, "read", err, ErrDegraded, server.ErrTimeout)
		_, c = dial(t)
		typed(t, "write", c.Write("d", "u", []byte("x")), ErrDegraded, server.ErrTimeout)
	})
	t.Run("disconnected", func(t *testing.T) {
		client, c := dial(t)
		if _, err := client.Stats(); !errors.Is(err, server.ErrTimeout) { // resets the wire
			t.Fatalf("stats err = %v, want the wire's ErrTimeout", err)
		}
		typed(t, "write", c.Write("d", "u", []byte("x")), ErrDegraded, server.ErrDisconnected)
		if st := c.Stats(); st.DegradedErrors != 1 {
			t.Fatalf("DegradedErrors = %d, want 1", st.DegradedErrors)
		}
	})
	t.Run("client closed", func(t *testing.T) {
		client, c := dial(t)
		client.Close()
		typed(t, "write", c.Write("d", "u", []byte("x")), ErrClosed, server.ErrClientClosed)
		if st := c.Stats(); st.DegradedErrors != 0 {
			t.Fatalf("DegradedErrors = %d, want 0: a closed client is not an outage", st.DegradedErrors)
		}
	})
	t.Run("server's answer", func(t *testing.T) {
		r := newRig(t, Options{})
		err := r.cache.Write("ghost", "u", []byte("x"))
		if err == nil || errors.Is(err, ErrDegraded) || errors.Is(err, ErrClosed) {
			t.Fatalf("write to a missing document: err = %v, want the server's answer", err)
		}
	})
}
