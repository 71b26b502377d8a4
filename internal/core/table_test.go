package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/replace"
	"placeless/internal/sig"
	"placeless/internal/stream"
)

// records returns every entry and cut of doc the table holds, by key,
// found by walking the stripes' entries rather than the document index.
func records(tab *Table, doc string) map[string]*Entry {
	out := make(map[string]*Entry)
	tab.each(func(sh *shard) {
		for k, e := range sh.entries {
			if e.Doc == doc {
				out[k] = e
			}
		}
	})
	return out
}

// TestDocumentWriteVisitsOnlyItsKeys is the origin's half of the test
// of the same name in internal/remote: a content write to one document
// drops that document's entries and cuts and leaves the other
// document's records as they were, and the per-stripe document index
// names exactly the table's records after install, document write,
// per-user push, eviction and Close.
func TestDocumentWriteVisitsOnlyItsKeys(t *testing.T) {
	const users = 6
	w := newWorld(t, Options{Memoize: true})
	consistent := func(when string) {
		t.Helper()
		if err := w.cache.tab.Audit(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	name := func(i int) string { return fmt.Sprintf("u%d", i) }
	for _, d := range []string{"a", "b"} {
		w.addDoc(t, d, name(0), "/"+d, []byte("teh body of "+d+"\nrecieve it\n"))
		for _, p := range []property.Active{property.NewSpellCorrector(time.Millisecond), property.NewLineNumberer(time.Millisecond)} {
			if err := w.space.Attach(d, "", docspace.Universal, p); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < users; i++ {
			if i > 0 {
				if _, err := w.space.AddReference(d, name(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.space.Attach(d, name(i), docspace.Personal, property.NewWatermarker(name(i), 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm := func() {
		t.Helper()
		for _, d := range []string{"a", "b"} {
			for i := 0; i < users; i++ {
				w.read(t, d, name(i))
			}
		}
		consistent("warm")
	}
	warm()
	// Per document: one entry and one personal cut per user, and the two
	// universal cuts every user's read starts from.
	perDoc := 2*users + 2
	b := records(w.cache.tab, "b")
	if a := records(w.cache.tab, "a"); len(a) != perDoc || len(b) != perDoc {
		t.Fatalf("records after warming: a %d, b %d; want %d each", len(a), len(b), perDoc)
	}

	if err := w.space.WriteDocument("a", name(0), []byte("new body")); err != nil {
		t.Fatal(err)
	}
	consistent("after a write to a")
	if left := records(w.cache.tab, "a"); len(left) != 0 {
		t.Fatalf("the write to a left %d of its records: %v", len(left), left)
	}
	after := records(w.cache.tab, "b")
	if len(after) != len(b) {
		t.Fatalf("the write to a took b from %d records to %d", len(b), len(after))
	}
	for k, e := range b {
		if after[k] != e {
			t.Fatalf("the write to a replaced b's record %q", k)
		}
	}
	if st := w.cache.Stats(); st.Invalidations != users || st.IntermediateEntries != int64(users+2) {
		t.Fatalf("after the write: %d invalidations, %d cuts; want %d and %d", st.Invalidations, st.IntermediateEntries, users, users+2)
	}

	// A personal property change on b for u2: u2's entry and personal
	// cut go, the universal cuts and everyone else's records stay.
	if err := w.space.Attach("b", name(2), docspace.Personal, property.NewUppercaser(0)); err != nil {
		t.Fatal(err)
	}
	consistent("after a per-user push")
	if got := len(records(w.cache.tab, "b")); got != perDoc-2 {
		t.Fatalf("b holds %d records after u2's push, want %d", got, perDoc-2)
	}

	warm()
	w.cache.Resize(w.cache.Stats().BytesStored / 2)
	consistent("after eviction")
	if w.cache.Stats().Evictions == 0 {
		t.Fatal("halving the budget evicted nothing")
	}

	w.cache.Close()
	consistent("after Close")
	if st := w.cache.Stats(); w.cache.Len() != 0 || st.IntermediateEntries != 0 || st.BytesStored != 0 {
		t.Fatalf("Close left %d entries, %d cuts, %d bytes", w.cache.Len(), st.IntermediateEntries, st.BytesStored)
	}
}

// TestInstallTakesExactBytes pins Install's storage rule: the table
// keeps an exact-size slice under a new signature as the blob itself,
// copies a slice with spare capacity to an exact-size blob, and shares
// the blob a held signature already has.
func TestInstallTakesExactBytes(t *testing.T) {
	tab := NewTable(replace.NewGDS(), nil)
	install := func(k string, data []byte) (stored []byte) {
		t.Helper()
		if !tab.Install(k, &Entry{Doc: "d", User: k, Signature: sig.Of(data)}, stream.Body{Head: data}, 0, sig.Zero) {
			t.Fatalf("%s: not installed", k)
		}
		_, body := tab.Lookup(k)
		return body.Bytes()
	}

	exact := []byte("exact-size body")
	if stored := install("a", exact); &stored[0] != &exact[0] {
		t.Fatal("an exact-size slice under a new signature was copied")
	}
	spare := append(make([]byte, 0, 64), "spare-capacity body"...)
	if stored := install("b", spare); &stored[0] == &spare[0] || cap(stored) != len(stored) || !bytes.Equal(stored, spare) {
		t.Fatalf("a slice with spare capacity: stored %d of %d capacity", len(stored), cap(stored))
	}
	again := []byte("exact-size body")
	if stored := install("c", again); &stored[0] != &exact[0] {
		t.Fatal("a held signature did not share the held blob")
	}
}

// TestComputedWordMapCutIsInternedAsHanded: a word-map transform's
// output reaches the table in the one exact-size allocation the
// transform made. The cut keeps that allocation as its blob, with no
// second copy, and pins no byte beyond it.
func TestComputedWordMapCutIsInternedAsHanded(t *testing.T) {
	w := newWorld(t, Options{Memoize: true})
	w.addDoc(t, "d", "eyal", "/d", []byte("the paper and the cache of the system, with caching"))
	tr := property.NewTranslator(0)
	kernel := tr.ReadTransform
	var handed []byte
	tr.ReadTransform = func(b []byte) []byte {
		handed = kernel(b)
		return handed
	}
	if err := w.space.Attach("d", "", docspace.Universal, tr); err != nil {
		t.Fatal(err)
	}
	w.read(t, "d", "eyal")
	var cuts int
	for _, e := range records(w.cache.tab, "d") {
		if !e.cut {
			continue
		}
		cuts++
		data := e.blob.data
		if unsafe.SliceData(data) != unsafe.SliceData(handed) || len(data) != len(handed) {
			t.Errorf("the table holds a copy of the transform's %d bytes", len(handed))
		}
		if cap(data) != len(data) {
			t.Errorf("the cut's %d bytes pin %d of capacity", len(data), cap(data))
		}
	}
	if cuts != 1 {
		t.Fatalf("%d cuts installed, want 1", cuts)
	}
}

// TestEveryReadServesTheInstalledBytes: a read hands out the table's
// bytes read-only, whichever path produced them — a hit, a follower
// coalesced onto another read's miss, a plain miss, a miss resumed from
// a memoized cut whose body is its last cut, a promotion from disk.
// Each returns the installed blob's own arrays, with no copy: for the
// memo-resumed miss, whose watermarked view is tail-shared, the cut's
// bytes and the view's tail.
func TestEveryReadServesTheInstalledBytes(t *testing.T) {
	installed := func(t *testing.T, w *world, user string, got stream.Body) {
		t.Helper()
		_, blob := w.cache.tab.Lookup(Key("d", user))
		if blob.Head == nil {
			t.Fatal("nothing installed")
		}
		same := func(a, b []byte) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b) }
		if !same(got.Head, blob.Head) || !same(got.Tail, blob.Tail) {
			t.Fatalf("a read returned %d bytes of its own, not the installed blob's", got.Len())
		}
	}
	t.Run("hit", func(t *testing.T) {
		w := newWorld(t, Options{})
		w.addDoc(t, "d", "eyal", "/d", []byte("body the table keeps"))
		w.read(t, "d", "eyal")
		data, info, err := w.cache.ReadWithInfo("d", "eyal")
		if err != nil || info.Verdict != obs.VerdictHit {
			t.Fatalf("setup: %+v, %v", info, err)
		}
		installed(t, w, "eyal", data)
	})
	t.Run("coalesced follower", func(t *testing.T) {
		w := newWorld(t, Options{})
		provider := &countingProvider{payload: []byte("abc"), release: make(chan struct{})}
		if _, err := w.space.CreateDocument("d", "u", provider); err != nil {
			t.Fatal(err)
		}
		const K = 4
		results := make([][]byte, K)
		var done sync.WaitGroup
		read := func(i int) {
			done.Add(1)
			go func() {
				defer done.Done()
				results[i], _ = w.cache.Read("d", "u")
			}()
		}
		// The leader parks inside the provider; the others then find
		// its flight.
		read(0)
		for provider.opens.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		for i := 1; i < K; i++ {
			read(i)
		}
		time.Sleep(50 * time.Millisecond)
		close(provider.release)
		done.Wait()
		if st := w.cache.Stats(); st.CoalescedMisses == 0 {
			t.Fatalf("no read was coalesced: %+v", st)
		}
		for _, data := range results {
			installed(t, w, "u", stream.Body{Head: data})
		}
	})
	t.Run("plain miss", func(t *testing.T) {
		w := newWorld(t, Options{})
		w.addDoc(t, "d", "eyal", "/d", []byte("body the table keeps"))
		if err := w.space.Attach("d", "", docspace.Universal, property.NewUppercaser(0)); err != nil {
			t.Fatal(err)
		}
		installed(t, w, "eyal", stream.Body{Head: w.read(t, "d", "eyal")})
	})
	t.Run("memo-resumed miss", func(t *testing.T) {
		users := memoUsers(2)
		w := newWorld(t, Options{Memoize: true})
		setupMemoDoc(t, w, users)
		w.read(t, "d", users[0])
		data, info, err := w.cache.ReadWithInfo("d", users[1])
		if err != nil || info.Verdict != obs.VerdictMemo || len(data.Tail) == 0 {
			t.Fatalf("setup: %+v, %d-byte tail, %v", info, len(data.Tail), err)
		}
		installed(t, w, users[1], data)
	})
	t.Run("disk promote", func(t *testing.T) {
		d := newDurableWorld(t, Options{})
		setupMemoDoc(t, d.world, []string{"eyal"})
		d.read(t, "d", "eyal")
		d.crashAndRestart()
		data, info, err := d.cache.ReadWithInfo("d", "eyal")
		if err != nil || info.Verdict != obs.VerdictDisk {
			t.Fatalf("setup: %+v, %v", info, err)
		}
		installed(t, d.world, "eyal", data)
	})
}
