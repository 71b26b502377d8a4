package remote

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/docspace"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/simnet"
)

// chaosRig is a cache over a killable, restartable server. The space
// and backing repository outlive the server instance — durable state
// surviving a crash — so writes made while the server is down become
// exactly the lost invalidations the reconnect epoch flush defends
// against.
type chaosRig struct {
	t       *testing.T
	space   *docspace.Space
	backing repo.Repository
	addr    string

	srv  *server.Server
	done chan error

	client *server.Client
	cache  *Cache
}

func newChaosRig(t *testing.T, opts Options, dialOpts ...server.DialOption) *chaosRig {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	r := &chaosRig{
		t:       t,
		space:   docspace.New(clk, nil),
		backing: repo.NewMem("srv", clk, simnet.NewPath("loop", 1)),
	}
	srv := server.New(r.space, r.backing)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	for i := 0; i < 200; i++ {
		if a := srv.Addr(); a != nil {
			r.addr = a.String()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if r.addr == "" {
		t.Fatal("server did not start")
	}
	r.srv, r.done = srv, done

	if len(dialOpts) == 0 {
		dialOpts = []server.DialOption{
			server.WithReconnect(5*time.Millisecond, 100*time.Millisecond),
			server.WithCallTimeout(2 * time.Second),
		}
	}
	client, err := server.Dial(r.addr, dialOpts...)
	if err != nil {
		t.Fatal(err)
	}
	r.client = client
	r.cache = New(client, opts)
	t.Cleanup(func() {
		client.Close()
		r.kill()
	})
	return r
}

// kill stops the current server instance (idempotent).
func (r *chaosRig) kill() {
	if r.srv == nil {
		return
	}
	r.srv.Close()
	<-r.done
	r.srv = nil
}

// restart brings a fresh server up on the original address over the
// surviving space.
func (r *chaosRig) restart() {
	r.t.Helper()
	r.kill()
	var ln net.Listener
	var err error
	for i := 0; i < 200; i++ {
		if ln, err = net.Listen("tcp", r.addr); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		r.t.Fatalf("relisten on %s: %v", r.addr, err)
	}
	srv := server.New(r.space, r.backing)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	r.srv, r.done = srv, done
}

// The acceptance scenario: kill the server under a loaded cache, write
// new content while it is down (those invalidations are lost — the
// notifiers died with the connection), restart it, and verify the
// client reconnects with backoff, the cache flushes the old epoch, and
// no read, during the disconnect or after it, ever returns the content
// that was invalidated while the server was down.
func TestChaosKillServerMidLoadReconnectFlush(t *testing.T) {
	// Fail-fast is the only outage policy; the subtest keeps its name.
	t.Run("fail-fast", func(t *testing.T) {
		r := newChaosRig(t, Options{})
		docs := []string{"d0", "d1", "d2", "d3", "d4"}
		for _, d := range docs {
			if err := r.client.CreateDocument(d, "u", []byte(d+" v1")); err != nil {
				t.Fatal(err)
			}
			if got, err := r.cache.Read(d, "u"); err != nil || string(got) != d+" v1" {
				t.Fatalf("warm read %s = %q, %v", d, got, err)
			}
		}
		if r.cache.Len() != len(docs) {
			t.Fatalf("cache holds %d entries, want %d", r.cache.Len(), len(docs))
		}

		r.kill()
		waitFor(t, func() bool { return r.client.State() == server.StateDisconnected })

		// While the server is down every doc changes. No server, no
		// notifiers: the invalidations are lost for good.
		for _, d := range docs {
			if err := r.space.WriteDocument(d, "u", []byte(d+" v2")); err != nil {
				t.Fatal(err)
			}
		}
		// The cache refuses what can no longer be proven fresh.
		if got, err := r.cache.Read(docs[0], "u"); !errors.Is(err, ErrDegraded) {
			t.Fatalf("read while down = %q, %v; want ErrDegraded", got, err)
		}

		r.restart()
		waitFor(t, func() bool { return r.cache.Stats().Reconnects == 1 })

		// Post-reconnect reads must never surface v1: the whole old epoch
		// was flushed, so every doc comes back from the wire as v2.
		for _, d := range docs {
			got, err := r.cache.Read(d, "u")
			if err != nil {
				t.Fatalf("post-reconnect read %s: %v", d, err)
			}
			if string(got) != d+" v2" {
				t.Fatalf("post-reconnect read %s = %q: stale content served past the epoch flush", d, got)
			}
		}
		st := r.cache.Stats()
		if st.EpochFlushes != int64(len(docs)) {
			t.Fatalf("EpochFlushes = %d, want %d", st.EpochFlushes, len(docs))
		}
		if r.client.Epoch() != 2 {
			t.Fatalf("client epoch = %d, want 2", r.client.Epoch())
		}

		// The post-reconnect miss carried the key's subscription again (the
		// reconnect forgot the old set and replayed nothing): a write
		// through the restarted server must push an invalidation for the
		// re-cached entry.
		if err := r.cache.Write(docs[0], "u", []byte("v3")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return !r.cache.Contains(docs[0], "u") })
		if got, _ := r.cache.Read(docs[0], "u"); string(got) != "v3" {
			t.Fatalf("read after the re-subscribed key's invalidation = %q", got)
		}
	})
}

// Fail-fast: while the server is unreachable, both hits and misses
// refuse with the typed ErrDegraded and nothing stale is ever served.
func TestChaosDegradedFailFast(t *testing.T) {
	r := newChaosRig(t, Options{})
	if err := r.client.CreateDocument("d", "u", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.cache.Read("d", "u"); err != nil {
		t.Fatal(err)
	}

	r.kill()
	waitFor(t, func() bool { return r.client.State() == server.StateDisconnected })

	if _, err := r.cache.Read("d", "u"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("cached hit while down = %v, want ErrDegraded", err)
	}
	if _, err := r.cache.Read("never-seen", "u"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("miss while down = %v, want ErrDegraded", err)
	}
	if err := r.cache.Write("d", "u", []byte("v2")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write while down = %v, want ErrDegraded", err)
	}
	st := r.cache.Stats()
	if st.Hits != 0 {
		t.Fatalf("Hits = %d: a cached entry was served while down", st.Hits)
	}
	if st.DegradedErrors < 3 {
		t.Fatalf("DegradedErrors = %d, want >= 3", st.DegradedErrors)
	}
}

// Concurrent readers racing a kill/write/restart cycle: every read
// returns promptly with either valid content or a typed error, and
// once the cache has observed the reconnect (epoch flushed), no reader
// ever gets the content invalidated during the outage. Run under
// -race; this is the regression test for the suspect-entry window
// between the wire coming back and the flush completing.
func TestChaosConcurrentReadersDuringDrop(t *testing.T) {
	r := newChaosRig(t, Options{})
	if err := r.client.CreateDocument("d", "u", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.cache.Read("d", "u"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var staleAfterFlush, untypedErrs atomic.Int64
	var firstUntyped atomic.Value
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Snapshot before the read: if the flush already
				// happened, v1 may never surface after this point.
				flushed := r.cache.Stats().Reconnects > 0
				data, err := r.cache.Read("d", "u")
				if err != nil {
					if !errors.Is(err, ErrDegraded) && !errors.Is(err, ErrClosed) {
						untypedErrs.Add(1)
						firstUntyped.CompareAndSwap(nil, err.Error())
					}
					continue
				}
				if flushed && string(data) == "v1" {
					staleAfterFlush.Add(1)
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond)
	r.kill()
	if err := r.space.WriteDocument("d", "u", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	r.restart()
	waitFor(t, func() bool {
		if r.cache.Stats().Reconnects == 0 {
			return false
		}
		data, err := r.cache.Read("d", "u")
		return err == nil && string(data) == "v2"
	})
	close(stop)
	wg.Wait()

	if n := staleAfterFlush.Load(); n != 0 {
		t.Fatalf("%d reads returned invalidated content after the epoch flush", n)
	}
	if n := untypedErrs.Load(); n != 0 {
		t.Fatalf("%d reads failed with untyped errors during the drop (first: %v)", n, firstUntyped.Load())
	}
}
