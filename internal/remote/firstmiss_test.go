package remote

import (
	"fmt"
	"sync"
	"testing"

	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/server"
	"placeless/internal/sig"
)

// requests is the number of frames the origin has handled.
func requests(srv *server.Server) int64 {
	n, _, _ := srv.Counters()
	return n
}

// TestFirstMissIsOneRoundTrip: a key's first miss costs the origin one
// request, and that request leaves the notifiers in place — a write at
// the origin is pushed. Later misses on the key are one request too,
// and carry the subscription again (the origin's pair deduplicates it).
func TestFirstMissIsOneRoundTrip(t *testing.T) {
	r := newRig(t, Options{})
	if err := r.client.CreateDocument("d", "u", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	before := requests(r.srv)
	if got, err := r.cache.Read("d", "u"); err != nil || string(got) != "v1" {
		t.Fatalf("first read = %q, %v", got, err)
	}
	if n := requests(r.srv) - before; n != 1 {
		t.Fatalf("first miss cost the origin %d requests, want 1", n)
	}
	if err := r.space.WriteDocument("d", "u", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return !r.cache.Contains("d", "u") })
	before = requests(r.srv)
	if got, err := r.cache.Read("d", "u"); err != nil || string(got) != "v2" {
		t.Fatalf("read after the push = %q, %v", got, err)
	}
	if n := requests(r.srv) - before; n != 1 {
		t.Fatalf("second miss cost the origin %d requests, want 1", n)
	}

	// The same two misses against an origin that shows its frames: the
	// subscribe bit (1<<2) on both.
	body := []byte("bytes")
	client, seen := fakeOrigin(t, body, sig.Of(body))
	cache := New(client, Options{})
	for i := 0; i < 2; i++ {
		if _, err := cache.Read("d", "u"); err != nil {
			t.Fatal(err)
		}
		cache.onInvalidate("d", "u")
	}
	if got := fmt.Sprint(seen()); got != "[4 4]" {
		t.Fatalf("request flags of two misses on one key = %s, want [4 4]", got)
	}
}

// TestReconnectReplaysNothing: after a kill and a reconnect the
// restarted origin hears nothing until somebody reads, then exactly one
// request per re-read key — no Subscribe frame for any of them — and
// each of those reads has put the key's notifiers back.
func TestReconnectReplaysNothing(t *testing.T) {
	r := newChaosRig(t, Options{})
	docs := []string{"d0", "d1", "d2", "d3", "d4"}
	for _, d := range docs {
		if err := r.client.CreateDocument(d, "u", []byte(d+" v1")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.cache.Read(d, "u"); err != nil {
			t.Fatal(err)
		}
	}
	r.kill()
	waitFor(t, func() bool { return r.client.State() == server.StateDisconnected })
	r.restart()
	waitFor(t, func() bool { return r.cache.Stats().Reconnects == 1 && !r.cache.Suspect() })
	if st := r.cache.Stats(); st.EpochFlushes != int64(len(docs)) || r.cache.Len() != 0 {
		t.Fatalf("after the reconnect: %d flushed, %d entries left, want %d and 0", st.EpochFlushes, r.cache.Len(), len(docs))
	}
	for _, d := range docs {
		if got, err := r.cache.Read(d, "u"); err != nil || string(got) != d+" v1" {
			t.Fatalf("re-read %s = %q, %v", d, got, err)
		}
	}
	// The restarted server is a new one: its count starts at the
	// reconnect. A replayed set would have made it twice the reads.
	if n := requests(r.srv); n != int64(len(docs)) {
		t.Fatalf("origin handled %d requests for %d re-reads", n, len(docs))
	}
	if r.cache.Len() != len(docs) {
		t.Fatalf("%d of %d re-read keys cached", r.cache.Len(), len(docs))
	}
	for _, d := range docs {
		if err := r.space.WriteDocument(d, "u", []byte(d+" v2")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return r.cache.Len() == 0 })
}

// TestChaosWriteBetweenReconnectAndReread: no subscription survives a
// reconnect and none is replayed, so a write that lands after the
// reconnect and before a key's next read is pushed to no one. That is
// safe only because the flush left nothing to invalidate: the re-read
// must fetch the new bytes, and must itself re-arm the pushes for the
// write after it.
func TestChaosWriteBetweenReconnectAndReread(t *testing.T) {
	r := newChaosRig(t, Options{})
	users := []string{"u", "v"}
	if err := r.client.CreateDocument("d", "u", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := r.client.AddReference("d", "v"); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		for _, u := range users {
			if _, err := r.cache.Read("d", u); err != nil {
				t.Fatal(err)
			}
		}
		r.kill()
		waitFor(t, func() bool { return r.client.State() == server.StateDisconnected })
		r.restart()
		want := int64(cycle + 1)
		waitFor(t, func() bool { return r.cache.Stats().Reconnects == want && !r.cache.Suspect() })

		between := fmt.Sprintf("cycle %d, between", cycle)
		if err := r.space.WriteDocument("d", "u", []byte(between)); err != nil {
			t.Fatal(err)
		}
		for _, u := range users {
			if got, err := r.cache.Read("d", u); err != nil || string(got) != between {
				t.Fatalf("first re-read as %s after the reconnect = %q, %v; want %q", u, got, err, between)
			}
		}
		after := fmt.Sprintf("cycle %d, after", cycle)
		if err := r.space.WriteDocument("d", "u", []byte(after)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return r.cache.Len() == 0 })
		for _, u := range users {
			if got, err := r.cache.Read("d", u); err != nil || string(got) != after {
				t.Fatalf("read as %s after the re-armed push = %q, %v; want %q", u, got, err, after)
			}
		}
	}
}

// TestDocumentWriteVisitsOnlyItsKeys: the table's per-stripe document
// index is what a document-wide push walks, so it must name exactly the
// document's entries through every way an entry comes and goes —
// install, user push, document push, eviction, reconnect flush, Close —
// and a push for one document must leave the other's entries (and their
// count) alone. internal/core has the same test for the origin's cache.
func TestDocumentWriteVisitsOnlyItsKeys(t *testing.T) {
	const users = 6
	r := newRig(t, Options{})
	consistent := func(when string) {
		t.Helper()
		if err := r.cache.tab.Audit(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	name := func(i int) string { return fmt.Sprintf("u%d", i) }
	warm := func() {
		t.Helper()
		for _, d := range []string{"a", "b"} {
			for i := 0; i < users; i++ {
				if _, err := r.cache.Read(d, name(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		consistent("warm")
	}
	for _, d := range []string{"a", "b"} {
		// Distinct bytes per user, so eviction below has blobs to free.
		if err := r.client.CreateDocument(d, name(0), []byte("doc "+d)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < users; i++ {
			if i > 0 {
				if err := r.client.AddReference(d, name(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.client.Attach(d, name(i), true, "watermark:"+name(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm()
	bEntries := make(map[string]*core.Entry)
	for i := 0; i < users; i++ {
		k := core.Key("b", name(i))
		bEntries[k], _ = r.cache.tab.Lookup(k)
	}

	r.cache.onInvalidate("a", "")
	consistent("after a document push")
	if st := r.cache.Stats(); st.Invalidations != users || r.cache.Len() != users {
		t.Fatalf("push for a: %d invalidations, %d entries left, want %d and %d", st.Invalidations, r.cache.Len(), users, users)
	}
	for k, e := range bEntries {
		if cur, _ := r.cache.tab.Lookup(k); cur != e {
			t.Fatalf("push for a replaced %q: %+v, was %+v", k, cur, e)
		}
	}

	r.cache.onInvalidate("b", name(2))
	consistent("after a user push")
	r.cache.onInvalidate("b", name(2)) // nothing cached: nothing counted
	if st := r.cache.Stats(); st.Invalidations != users+1 {
		t.Fatalf("Invalidations = %d, want %d", st.Invalidations, users+1)
	}

	warm()
	r.cache.tab.Resize(r.cache.tab.BytesStored() / 2)
	consistent("after eviction")
	if r.cache.Stats().Evictions == 0 {
		t.Fatal("halving the budget evicted nothing")
	}

	r.cache.onConnState(server.StateConnected, r.client.Epoch())
	consistent("after a reconnect flush")
	if r.cache.Len() != 0 || r.cache.Stats().BytesStored != 0 {
		t.Fatalf("reconnect flush left %d entries, %d bytes", r.cache.Len(), r.cache.Stats().BytesStored)
	}

	warm()
	r.cache.Close()
	consistent("after Close")
	if r.cache.Len() != 0 {
		t.Fatalf("Close left %d entries", r.cache.Len())
	}
}

// TestPushDuringMissIsNotInstalled: a push that lands while a key's
// wire read is in flight keeps the fetched bytes out of the table — the
// install is checked against the generation the miss took before it
// fetched. The origin's transform holds the read open, and the push is
// handed to the cache inside that window.
func TestPushDuringMissIsNotInstalled(t *testing.T) {
	r := newRig(t, Options{})
	if err := r.client.CreateDocument("d", "u", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	gate := &property.Transformer{Base: property.Base{PropName: "gate"}, ReadTransform: func(b []byte) []byte {
		once.Do(func() { close(entered); <-release })
		return b
	}}
	if err := r.space.Attach("d", "", docspace.Universal, gate); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.cache.Read("d", "u")
		done <- err
	}()
	<-entered
	r.cache.onInvalidate("d", "")
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r.cache.Contains("d", "u") {
		t.Fatal("bytes fetched across a push were installed")
	}
	if _, err := r.cache.Read("d", "u"); err != nil || !r.cache.Contains("d", "u") {
		t.Fatalf("the read after the push did not install: %v", err)
	}
}
