package core

import (
	"fmt"
	"testing"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/property"
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

	if err := w.cache.Close(); err != nil {
		t.Fatal(err)
	}
	consistent("after Close")
	if st := w.cache.Stats(); w.cache.Len() != 0 || st.IntermediateEntries != 0 || st.BytesStored != 0 {
		t.Fatalf("Close left %d entries, %d cuts, %d bytes", w.cache.Len(), st.IntermediateEntries, st.BytesStored)
	}
}
