package core

import (
	"bytes"
	"testing"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
)

// setupSharedPersonalDoc builds document "d" with one universal
// spell-correct and, per user, a personal chain of [translate,
// watermark]: every user's translate property carries the same memo
// key, so the prefix pipeline can share its output across users.
func setupSharedPersonalDoc(t *testing.T, w *world, users []string) {
	t.Helper()
	w.addDoc(t, "d", users[0], "/d", []byte("the quick brown fox\nand the lazy dog\n"))
	if err := w.space.Attach("d", "", docspace.Universal, property.NewSpellCorrector(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for i, u := range users {
		if i > 0 {
			if _, err := w.space.AddReference("d", u); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.space.Attach("d", u, docspace.Personal, property.NewTranslator(4*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if err := w.space.Attach("d", u, docspace.Personal, property.NewWatermarker(u, 0)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrefixSharesPersonalSegmentAcrossUsers: after the first user's
// miss, every further user's miss resumes from the shared translate
// cut and executes only its own watermark — per-user work is one
// segment, not the whole personal chain.
func TestPrefixSharesPersonalSegmentAcrossUsers(t *testing.T) {
	users := memoUsers(6)
	w := newWorld(t, Options{Memoize: true})
	setupSharedPersonalDoc(t, w, users)

	w.read(t, "d", users[0])
	base := w.cache.Stats()
	// First user computes every segment: spell, boundary (merged with
	// spell's cut when no event-only universal props follow — so at
	// least spell/translate/watermark).
	if base.PrefixSegmentRuns < 3 {
		t.Fatalf("first miss ran %d segments, want >= 3", base.PrefixSegmentRuns)
	}

	for _, u := range users[1:] {
		data, info, err := readBytes(w.cache, "d", u)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(u)) {
			t.Fatalf("user %s: personalization missing: %q", u, data)
		}
		if info.Verdict != obs.VerdictMemo {
			t.Fatalf("user %s: miss did not resume from a cached prefix", u)
		}
	}
	st := w.cache.Stats()
	if got := st.PrefixSegmentRuns - base.PrefixSegmentRuns; got != int64(len(users)-1) {
		t.Fatalf("followers ran %d segments, want %d (one watermark each)", got, len(users)-1)
	}
	if st.UniversalStageRuns != 1 {
		t.Fatalf("UniversalStageRuns = %d, want 1", st.UniversalStageRuns)
	}
	if st.PrefixHits < int64(len(users)-1) {
		t.Fatalf("PrefixHits = %d, want >= %d", st.PrefixHits, len(users)-1)
	}
}

// TestInvalidateUserSweepsOnlyTheirPersonalCuts: a per-user
// invalidation drops that user's personal cuts and nothing else; the
// re-read resumes from the surviving shared prefix.
func TestInvalidateUserSweepsOnlyTheirPersonalCuts(t *testing.T) {
	users := memoUsers(2)
	w := newWorld(t, Options{Memoize: true})
	setupMemoDoc(t, w, users)
	for _, u := range users {
		w.read(t, "d", u)
	}
	before := w.cache.Stats()

	w.cache.Invalidate("d", users[1])
	mid := w.cache.Stats()
	if got := before.IntermediateEntries - mid.IntermediateEntries; got != 1 {
		t.Fatalf("per-user invalidation dropped %d intermediates, want 1 (their watermark cut)", got)
	}

	_, info, err := w.cache.ReadWithInfo("d", users[1])
	if err != nil {
		t.Fatal(err)
	}
	if info.Verdict != obs.VerdictMemo {
		t.Fatalf("info = %+v, want a miss resumed from the surviving prefix", info)
	}
	st := w.cache.Stats()
	if st.UniversalStageRuns != 1 {
		t.Fatalf("UniversalStageRuns = %d, want 1 (universal cuts must survive)", st.UniversalStageRuns)
	}
	if got := st.PrefixSegmentRuns - mid.PrefixSegmentRuns; got != 1 {
		t.Fatalf("re-read ran %d segments, want 1 (watermark only)", got)
	}
}
