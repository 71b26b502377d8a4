package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/replace"
)

// TestQuickEvictNeverTakesPinnedEntry: the replacement policy must
// never evict an entry whose key has an in-flight single-flight read —
// a reader is mid-verify/mid-install on it — while still enforcing the
// budget once the flight clears. The property is checked over random
// document counts and pin subsets by registering artificial flights
// directly in the shard flight tables (exactly the state a concurrent
// reader would leave) and forcing eviction via Resize. With Memoize the
// table eviction walks holds both kinds of record: each document adds
// a universal cut with bytes of its own and a personal cut aliasing
// its entry's.
func TestQuickEvictNeverTakesPinnedEntry(t *testing.T) {
	for _, memoize := range []bool{false, true} {
		t.Run(fmt.Sprintf("memoize=%v", memoize), func(t *testing.T) { quickEvictNeverTakesPinnedEntry(t, memoize) })
	}
}

func quickEvictNeverTakesPinnedEntry(t *testing.T, memoize bool) {
	const docSize = 64
	const capacity = docSize + docSize/2 // fewer than two entries fit

	f := func(nDocs uint8, pinMask uint16) bool {
		n := int(nDocs%12) + 2 // 2..13 documents
		w := newWorld(t, Options{Policy: replace.NewGDS(), Memoize: memoize})

		docs := make([]string, n)
		for i := range docs {
			docs[i] = fmt.Sprintf("d%d", i)
			// Unique content per doc so no blobs are shared and every
			// eviction frees real bytes.
			content := make([]byte, docSize)
			for j := range content {
				content[j] = byte(i*31 + j)
			}
			w.addDoc(t, docs[i], "u", "/"+docs[i], content)
			if memoize {
				if err := w.space.Attach(docs[i], "", docspace.Universal, property.NewRot13(0)); err != nil {
					t.Fatal(err)
				}
				if err := w.space.Attach(docs[i], "u", docspace.Personal, property.NewUppercaser(0)); err != nil {
					t.Fatal(err)
				}
			}
			w.read(t, docs[i], "u")
		}
		if cuts := w.cache.tab.stats.cuts.Load(); memoize && cuts != int64(2*n) {
			t.Logf("%d cuts resident beside %d entries, want %d", cuts, n, 2*n)
			return false
		}

		// Pin a subset with artificial in-flight reads.
		pinned := make(map[string]bool)
		fakes := make(map[string]*flight)
		for i, d := range docs {
			if pinMask&(1<<uint(i)) == 0 {
				continue
			}
			k := Key(d, "u")
			fl := &flight{done: make(chan struct{})}
			sh := w.cache.tab.shardFor(k)
			sh.mu.Lock()
			sh.flights[k] = fl
			sh.mu.Unlock()
			pinned[k] = true
			fakes[k] = fl
		}

		w.cache.Resize(capacity) // force eviction far below the working set

		// Every pinned entry must have survived.
		for k := range pinned {
			doc, user := splitKey(k)
			if !w.cache.Contains(doc, user) {
				t.Logf("pinned entry %q evicted (n=%d mask=%04x)", k, n, pinMask)
				return false
			}
		}

		// Release the flights; the budget must then be enforceable.
		for k, fl := range fakes {
			sh := w.cache.tab.shardFor(k)
			sh.mu.Lock()
			delete(sh.flights, k)
			sh.mu.Unlock()
			close(fl.done)
		}
		w.cache.Resize(capacity)
		if stored := w.cache.tab.stats.bytesStored.Load(); stored > capacity {
			t.Logf("budget not enforced after unpin: stored=%d cap=%d", stored, capacity)
			return false
		}
		live := 0
		for _, d := range docs {
			if w.cache.Contains(d, "u") {
				live++
			}
		}
		if got := w.cache.Len(); got != live {
			t.Logf("Len() = %d with %d entries live: cuts leaked into the count", got, live)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEvictReinsertSkipsReplacedEntry: if the flight that pinned a key
// finishes (replacing the entry) between the skip and the re-insert,
// the policy must not end up tracking a ghost key. Simulated by
// dropping the entry while pinned, then resizing again: Victim must
// not spin and the budget loop must terminate.
func TestEvictPinnedThenInvalidatedDoesNotGhost(t *testing.T) {
	w := newWorld(t, Options{Policy: replace.NewGDS()})
	w.addDoc(t, "a", "u", "/a", make([]byte, 64))
	w.read(t, "a", "u")

	k := Key("a", "u")
	fl := &flight{done: make(chan struct{})}
	sh := w.cache.tab.shardFor(k)
	sh.mu.Lock()
	sh.flights[k] = fl
	sh.mu.Unlock()

	w.cache.Resize(16) // pinned: survives, goes through remove+reinsert

	// Invalidate underneath (simulates the racing replacement).
	w.cache.tab.drop(k)

	sh.mu.Lock()
	delete(sh.flights, k)
	sh.mu.Unlock()
	close(fl.done)

	// Must terminate (no ghost key keeps Victim returning a phantom)
	// and end at zero bytes.
	w.cache.Resize(16)
	if stored := w.cache.tab.stats.bytesStored.Load(); stored != 0 {
		t.Fatalf("stored = %d after dropping the only entry", stored)
	}
}
