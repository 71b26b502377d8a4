package sig_test

import (
	"bytes"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/sig"
	"placeless/internal/simnet"
	"placeless/internal/store"
	"placeless/internal/stream"
)

// TestMissSignsEachBodyOnce counts the sig.Of runs of the origin's three
// miss shapes, on the live benchmark's chain (two universal
// transforms, a personal watermark) over a 4 KiB source with the disk
// tier attached. It lives here because only this package's tests can
// count (CountOf); what it pins is internal/core's miss path and
// internal/store's put path:
//
//   - the source is hashed once, by the staged read, which hands the
//     signature on in its trace — demotion does not fetch and hash it
//     again;
//   - a computed cut is hashed once, by the store, as it queues the
//     cut's record: the cache interns the cut under the signature the
//     put returns; the final body, which is the last cut's bytes over
//     again, is not hashed at all — its entry names the cut's blob;
//   - a disk promote hashes the source once (the live probe) and the
//     body once (GetBlobHead's proof, which also signs the head its
//     record claims), and interns under that proof, split at the head;
//   - a later user's promote, whose head is then resident, reads only
//     its tail and hashes head ‖ tail once (GetBlobAfter); its probe
//     reuses the source stamp the first left.
func TestMissSignsEachBodyOnce(t *testing.T) {
	// Each transform lengthens the text ("occured" gains a letter, "a"
	// becomes "un", the watermark appends), so no body has the source's
	// length and the counter can tell them apart.
	source := bytes.Repeat([]byte("it occured to a quick brown fox that dogs nap\n"), 90)[:4096]
	// Chain-fingerprint inputs are a few hundred bytes of property
	// names and memo keys; everything this test counts is a document.
	const document = 1024

	clk := clock.NewVirtual(time.Date(1999, 3, 28, 0, 0, 0, 0, time.UTC))
	src := repo.NewMem("nfs", clk, simnet.Local(1))
	src.Store("/d", source)
	space := docspace.New(clk, repo.NewDMS("dms", clk, simnet.Local(2)))
	users := []string{"u0", "u1", "u2"}
	if _, err := space.CreateDocument("d", users[0], &property.RepoBitProvider{Repo: src, Path: "/d"}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []property.Active{property.NewSpellCorrector(0), property.NewTranslator(0)} {
		if err := space.Attach("d", "", docspace.Universal, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, u := range users {
		if i > 0 {
			if _, err := space.AddReference("d", u); err != nil {
				t.Fatal(err)
			}
		}
		if err := space.Attach("d", u, docspace.Personal, property.NewWatermarker(u, 0)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	cache := core.New(space, core.Options{Name: "once", Store: st})

	var sources, bodies, hashed int
	defer sig.CountOf(func(n int) {
		switch {
		case n < document:
		case n == len(source):
			sources++
			hashed += n
		default:
			bodies++
			hashed += n
		}
	})()
	read := func(user, shape string, wantSources, wantBodies int, check func(core.EntryInfo) bool) stream.Body {
		t.Helper()
		sources, bodies, hashed = 0, 0, 0
		body, info, err := cache.ReadWithInfo("d", user)
		data := body.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) <= len(source) {
			t.Fatalf("%s: a %d-byte body cannot be told from the source or a fingerprint input", shape, len(data))
		}
		if !check(info) {
			t.Fatalf("%s: the read took another shape: %+v", shape, info)
		}
		t.Logf("%s: %d source + %d body hashes, %d bytes hashed", shape, sources, bodies, hashed)
		if sources != wantSources || bodies != wantBodies {
			t.Errorf("%s: %d source + %d body hashes, want %d + %d", shape, sources, bodies, wantSources, wantBodies)
		}
		return body
	}

	// Three new cuts: after spell-correct, after translate (the
	// universal boundary), after u0's watermark.
	read(users[0], "full miss, 3 new cuts", 1, 3, func(i core.EntryInfo) bool {
		return i.Verdict == obs.VerdictMiss
	})
	// Resumes from the boundary cut; u1's watermark is the one new cut.
	read(users[1], "memo-resumed miss", 1, 1, func(i core.EntryInfo) bool { return i.Verdict == obs.VerdictMemo })
	if got := cache.Stats(); got.StoreDemotions != 2 || got.StoreIntermediateDemotions != 4 {
		t.Fatalf("demotions = %d entries, %d cuts, want 2 and 4: the hashes above are not the whole path", got.StoreDemotions, got.StoreIntermediateDemotions)
	}

	cache.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, _, err = store.Open(dir, store.Options{}); err != nil {
		t.Fatal(err)
	}
	cache = core.New(space, core.Options{Name: "once", Store: st})
	promoted := func(i core.EntryInfo) bool { return i.Verdict == obs.VerdictDisk }
	twoParts := func(shape string, b stream.Body) {
		t.Helper()
		if len(b.Tail) == 0 || b.HeadSig.IsZero() {
			t.Errorf("%s: the promoted body came back whole (%d-byte head, no tail or no head signature)", shape, len(b.Head))
		}
	}
	twoParts("disk promote", read(users[0], "disk promote", 1, 1, promoted))
	// u1's view begins with the head u0's promote left resident: only
	// its tail is read, and one hash over head ‖ tail proves the blob.
	// The source is not fetched again: the probe reuses the stamp.
	twoParts("disk promote on a resident head", read(users[1], "disk promote on a resident head", 0, 1, promoted))
}
