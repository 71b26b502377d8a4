package server

import (
	"bytes"
	"sync/atomic"
	"testing"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/sig"
	"placeless/internal/simnet"
	"placeless/internal/store"
	"placeless/internal/stream"
)

// writeDuringRead is an active property whose read transform rewrites
// the document the first time it runs: the read's install races an
// invalidation, deterministically.
type writeDuringRead struct {
	property.Base
	space *docspace.Space
	doc   string
	fired atomic.Bool // set on a handler goroutine, checked by the test
}

func (w *writeDuringRead) WrapInput(*property.ReadContext) stream.Transform {
	return func(b []byte) []byte {
		if w.fired.CompareAndSwap(false, true) {
			if err := w.space.WriteDocument(w.doc, "owner", []byte("rewritten under the read")); err != nil {
				panic(err)
			}
		}
		return b
	}
}

// TestReadSignatureOnEveryPath: whichever way the server produces a
// read response, a storable body travels with its own content
// signature — the remote cache keys shared storage by it and never
// hashes the body itself.
func TestReadSignatureOnEveryPath(t *testing.T) {
	body := bytes.Repeat([]byte("signed at the origin "), 512) // ~10 KiB

	// world is one document space with "d" created by "owner".
	type world struct {
		space   *docspace.Space
		backing repo.Repository
	}
	newWorld := func(t *testing.T) world {
		clk := clock.NewVirtual(epoch)
		w := world{
			space:   docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("loop", 2))),
			backing: repo.NewMem("srv", clk, simnet.NewPath("loop", 1)),
		}
		if resp := New(w.space, w.backing).apply(&Request{Op: OpCreateDocument, Doc: "d", User: "owner", Body: body}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
		return w
	}
	newCache := func(t *testing.T, w world, st *store.Store) *core.Cache {
		cache := core.New(w.space, core.Options{Name: "sig-test", Capacity: 1 << 20, Store: st})
		t.Cleanup(func() { _ = cache.Close() })
		return cache
	}

	cases := []struct {
		name string
		// boot builds the server under test; the returned check runs
		// after the read, to confirm the intended path served it.
		boot func(t *testing.T, w world) (*Server, func(t *testing.T))
		// warm reads before the checked read.
		warm int
	}{
		{name: "cacheless server", boot: func(t *testing.T, w world) (*Server, func(*testing.T)) {
			return New(w.space, w.backing), func(*testing.T) {}
		}},
		{name: "full-handler miss", boot: func(t *testing.T, w world) (*Server, func(*testing.T)) {
			cache := newCache(t, w, nil)
			return NewCached(w.space, w.backing, cache), func(t *testing.T) {
				if st := cache.Stats(); st.Misses != 1 || st.Hits != 0 {
					t.Fatalf("cache stats = %+v, want exactly one miss", st)
				}
			}
		}},
		{name: "warm fast hit", warm: 1, boot: func(t *testing.T, w world) (*Server, func(*testing.T)) {
			cache := newCache(t, w, nil)
			return NewCached(w.space, w.backing, cache), func(t *testing.T) {
				if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 {
					t.Fatalf("cache stats = %+v, want one miss then one hit", st)
				}
			}
		}},
		{name: "disk promote", boot: func(t *testing.T, w world) (*Server, func(*testing.T)) {
			st, _, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = st.Close() })
			// A first cache demotes the entry to disk and dies; its
			// successor has nothing in memory.
			first := core.New(w.space, core.Options{Name: "sig-test-first", Capacity: 1 << 20, Store: st})
			if _, err := first.Read("d", "owner"); err != nil {
				t.Fatal(err)
			}
			first.Kill()
			cache := newCache(t, w, st)
			return NewCached(w.space, w.backing, cache), func(t *testing.T) {
				if st := cache.Stats(); st.StorePromotions != 1 {
					t.Fatalf("StorePromotions = %d, want 1", st.StorePromotions)
				}
			}
		}},
		{name: "install aborted by a concurrent write", boot: func(t *testing.T, w world) (*Server, func(*testing.T)) {
			cache := newCache(t, w, nil)
			// A clean first read installs the cache's notifiers; then
			// arm the property that writes mid-read.
			if _, err := cache.Read("d", "owner"); err != nil {
				t.Fatal(err)
			}
			cache.Invalidate("d", "owner")
			racer := &writeDuringRead{Base: property.Base{PropName: "write-during-read"}, space: w.space, doc: "d"}
			if err := w.space.Attach("d", "owner", docspace.Personal, racer); err != nil {
				t.Fatal(err)
			}
			return NewCached(w.space, w.backing, cache), func(t *testing.T) {
				if !racer.fired.Load() {
					t.Fatal("the racing write never ran")
				}
				if cache.Contains("d", "owner") {
					t.Fatal("the raced read installed an entry; the path under test is the aborted install")
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			srv, check := tc.boot(t, w)
			c := serveAndDial(t, srv)
			for i := 0; i < tc.warm; i++ {
				if _, _, err := c.Read("d", "owner"); err != nil {
					t.Fatal(err)
				}
			}
			got, meta, err := c.Read("d", "owner")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, body) {
				t.Fatalf("body mismatch (%d bytes, want %d)", len(got), len(body))
			}
			if meta.Cacheability == property.Uncacheable {
				t.Fatalf("cacheability = %v; the case needs a storable response", meta.Cacheability)
			}
			if meta.Signature != sig.Of(got) {
				t.Fatalf("meta.Signature = %v, want sig.Of(body) = %v", meta.Signature, sig.Of(got))
			}
			check(t)
		})
	}
}
