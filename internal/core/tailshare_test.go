package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/replace"
	"placeless/internal/sig"
	"placeless/internal/stream"
)

// Tail-shared blobs: a record installed on a base whose bytes its own
// begin with keeps only the rest (Table.Install). These tests hold the
// store to the whole-blob accounting it replaces and to bytes that
// never change under a hit, whatever happens to the base.

// tailUniverse is the content a tail-sharing test installs: cuts[i] are
// the bytes a chain produces before a personal step, and views[i][u]
// are cuts[i] with user u's banner appended, as a watermark writes it.
type tailUniverse struct {
	cuts  [][]byte
	views [][][]byte
}

func newTailUniverse(ncuts, nusers int) tailUniverse {
	var w tailUniverse
	for i := 0; i < ncuts; i++ {
		cut := bytes.Repeat([]byte(fmt.Sprintf("cut %d of the universal chain. ", i)), 8*(i+1))
		w.cuts = append(w.cuts, cut)
		var views [][]byte
		for u := 0; u < nusers; u++ {
			views = append(views, append(append([]byte(nil), cut...), fmt.Sprintf("\n-- retrieved for u%d --\n", u)...))
		}
		w.views = append(w.views, views)
	}
	return w
}

// TestQuickTailSharingMatchesWholeBlobs drives two tables through one
// random sequence of installs, drops, evictions, DropAll and Close: one
// installs every view on its cut, the other (the reference model)
// installs every blob whole. Every Lookup must return the installed
// bytes on both; BytesStored, the logical bytes and Evictions must be
// equal throughout; BytesResident must never exceed BytesStored, and
// both reach 0 when the table is emptied.
func TestQuickTailSharingMatchesWholeBlobs(t *testing.T) {
	const docs, ncuts, nusers = 2, 3, 4
	w := newTailUniverse(ncuts, nusers)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shared, whole := NewTable(replace.NewGDS(), nil), NewTable(replace.NewGDS(), nil)
		want := map[string][]byte{} // what each key was last installed with
		fail := func(format string, args ...any) bool {
			t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
			return false
		}
		install := func(k string, e Entry, body stream.Body, base sig.Signature) {
			e2 := e
			data := body.Bytes()
			okS := shared.Install(k, &e, body, shared.Gen(e.Doc), base)
			okW := whole.Install(k, &e2, stream.Body{Head: data}, whole.Gen(e.Doc), sig.Zero)
			if okS != okW {
				t.Errorf("seed %d: install of %q: %v with a base, %v whole", seed, k, okS, okW)
			}
			want[k] = data
		}
		agree := func(step int) bool {
			if s, w := shared.BytesStored(), whole.BytesStored(); s != w {
				return fail("step %d: BytesStored %d with tails, %d whole", step, s, w)
			}
			if s, w := shared.stats.bytesLogical.Load(), whole.stats.bytesLogical.Load(); s != w {
				return fail("step %d: BytesLogical %d with tails, %d whole", step, s, w)
			}
			if s, w := shared.Evictions(), whole.Evictions(); s != w {
				return fail("step %d: Evictions %d with tails, %d whole", step, s, w)
			}
			if r, s := shared.blobs.BytesResident(), shared.BytesStored(); r > s || r < 0 {
				return fail("step %d: BytesResident %d, BytesStored %d", step, r, s)
			}
			if r, s := whole.blobs.BytesResident(), whole.BytesStored(); r != s {
				return fail("step %d: the whole-blob table holds %d bytes but charges %d", step, r, s)
			}
			for k, data := range want {
				eS, bS := shared.Lookup(k)
				eW, bW := whole.Lookup(k)
				if (eS == nil) != (eW == nil) {
					return fail("step %d: %q resident %v with tails, %v whole", step, k, eS != nil, eW != nil)
				}
				if eS == nil {
					continue
				}
				if !bytes.Equal(bS.Bytes(), data) || !bytes.Equal(bW.Bytes(), data) || bS.Len() != len(data) {
					return fail("step %d: %q does not read back what was installed", step, k)
				}
			}
			return true
		}
		for step := 0; step < 120; step++ {
			doc := fmt.Sprintf("d%d", rng.Intn(docs))
			i, u := rng.Intn(ncuts), rng.Intn(nusers)
			cutKey := interKey(sig.Of([]byte(doc)), sig.Of(w.cuts[i]))
			switch op := rng.Intn(10); {
			case op < 3:
				install(cutKey, Entry{Doc: doc, Signature: sig.Of(w.cuts[i]), Cost: time.Duration(1+i) * time.Millisecond, cut: true}, stream.Body{Head: w.cuts[i]}, sig.Zero)
			case op < 5:
				// A personal cut on its universal cut, as leadCut installs it.
				k := interKey(sig.Of([]byte(doc)), sig.Of(w.views[i][u]))
				install(k, Entry{Doc: doc, User: fmt.Sprint(u), Signature: sig.Of(w.views[i][u]), Cost: time.Millisecond, cut: true}, stream.Body{Head: w.views[i][u]}, sig.Of(w.cuts[i]))
			case op < 6:
				// The (doc, user) entry, as miss installs it.
				install(Key(doc, fmt.Sprint(u)), Entry{Doc: doc, User: fmt.Sprint(u), Signature: sig.Of(w.views[i][u]), Cost: 2 * time.Millisecond}, stream.Body{Head: w.views[i][u]}, sig.Of(w.cuts[i]))
			case op < 7:
				// The entry as a sidecar installs it: in the head and
				// tail an origin reported, both in the wire's own
				// allocation.
				v, n := append([]byte(nil), w.views[i][u]...), len(w.cuts[i])
				body := stream.Body{Head: v[:n:n], Tail: v[n:], HeadSig: sig.Of(w.cuts[i])}
				install(Key(doc, fmt.Sprint(u)), Entry{Doc: doc, User: fmt.Sprint(u), Signature: sig.Of(v), Cost: 2 * time.Millisecond}, body, body.HeadSig)
			case op < 8:
				shared.DropDoc(doc)
				whole.DropDoc(doc)
			case op < 9:
				shared.DropUser(doc, fmt.Sprint(u))
				whole.DropUser(doc, fmt.Sprint(u))
			default:
				capacity := int64(rng.Intn(3000))
				shared.Resize(capacity)
				whole.Resize(capacity)
			}
			if !agree(step) {
				return false
			}
		}
		if rng.Intn(2) == 0 {
			shared.DropAll()
			whole.DropAll()
		} else {
			shared.Close()
			whole.Close()
		}
		if !agree(-1) {
			return false
		}
		if shared.BytesStored() != 0 || shared.blobs.BytesResident() != 0 || len(shared.blobs.blobs) != 0 {
			return fail("emptied: %d bytes stored, %d resident, %d blobs", shared.BytesStored(), shared.blobs.BytesResident(), len(shared.blobs.blobs))
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTailSharingInstall pins the storage rule: a view installed on its
// cut keeps only its tail and reads back whole; one whose bytes do not
// begin with the base's is kept whole; a view of a view is built on
// the whole blob underneath, so the chain stays one level deep; and an
// empty blob is no base.
func TestTailSharingInstall(t *testing.T) {
	tab := NewTable(replace.NewGDS(), nil)
	cut := []byte("the universal output")
	view := []byte("the universal output\n-- retrieved for amy --\n")
	deeper := []byte("the universal output\n-- retrieved for amy --\n-- and audited --\n")
	other := []byte("another output entirely")
	install := func(k string, data []byte, base sig.Signature) stream.Body {
		t.Helper()
		if !tab.Install(k, &Entry{Doc: "d", User: k, Signature: sig.Of(data)}, stream.Body{Head: data}, 0, base) {
			t.Fatalf("%s: not installed", k)
		}
		_, b := tab.Lookup(k)
		if !bytes.Equal(b.Bytes(), data) {
			t.Fatalf("%s reads back %q, want %q", k, b.Bytes(), data)
		}
		return b
	}
	install("cut", cut, sig.Zero)
	if b := install("view", view, sig.Of(cut)); string(b.Tail) != "\n-- retrieved for amy --\n" || b.HeadSig != sig.Of(cut) {
		t.Fatalf("the view keeps %d bytes of its own, want its %d-byte tail", len(b.Tail), len(view)-len(cut))
	}
	if b := install("deeper", deeper, sig.Of(view)); len(b.Tail) != len(deeper)-len(cut) || &b.Head[0] != &tab.blobs.blobs[sig.Of(cut)].data[0] {
		t.Fatal("a view of a view is not built on the whole blob underneath")
	}
	if b := install("other", other, sig.Of(cut)); len(b.Tail) != 0 || !b.HeadSig.IsZero() {
		t.Fatal("bytes that do not begin with the base's were tail-shared")
	}
	resident := int64(len(cut) + (len(view) - len(cut)) + (len(deeper) - len(cut)) + len(other))
	if got := tab.blobs.BytesResident(); got != resident {
		t.Fatalf("BytesResident = %d, want %d", got, resident)
	}
	if got, want := tab.BytesStored(), int64(len(cut)+len(view)+len(deeper)+len(other)); got != want {
		t.Fatalf("BytesStored = %d, want %d: capacity charges every blob its full length", got, want)
	}
	// The cut's last holder goes; its bytes stay, uncharged, for the
	// views built on them.
	tab.drop("cut")
	if got, want := tab.BytesStored(), int64(len(view)+len(deeper)+len(other)); got != want {
		t.Fatalf("after the cut's drop BytesStored = %d, want %d", got, want)
	}
	if got := tab.blobs.BytesResident(); got != resident {
		t.Fatalf("after the cut's drop BytesResident = %d, want %d", got, resident)
	}
	if _, b := tab.Lookup("view"); !bytes.Equal(b.Bytes(), view) {
		t.Fatal("the view lost its head with the cut")
	}
	tab.drop("view")
	tab.drop("deeper")
	if got := tab.blobs.BytesResident(); got != int64(len(other)) {
		t.Fatalf("with the views gone BytesResident = %d, want the other blob's %d", got, len(other))
	}
	// An empty blob is no base: the wire and the disk record name a head
	// by a non-zero length.
	install("empty", nil, sig.Zero)
	if b := install("banner", []byte("-- a banner --"), sig.Of(nil)); len(b.Tail) != 0 || !b.HeadSig.IsZero() {
		t.Fatal("a view was built on an empty base")
	}
}

// TestTailSharedHeadInstall pins the one base rule for a body split at
// a head the table may not hold, as a sidecar installs the head and
// tail an origin reported: the first view's parts stay where they lie
// (its head becomes the base, charged to no one, and its tail is not
// copied), a later view's head is checked against the base and only a
// copy of its tail kept, a view whose head is not the base's bytes is
// kept whole, and the base goes with its last tail.
func TestTailSharedHeadInstall(t *testing.T) {
	tab := NewTable(replace.NewGDS(), nil)
	cut := []byte("the universal output")
	cutSig, n := sig.Of(cut), len(cut)
	install := func(k string, data []byte) stream.Body {
		t.Helper()
		body := stream.Body{Head: data[:n:n], Tail: data[n:], HeadSig: cutSig}
		if !tab.Install(k, &Entry{Doc: "d", User: k, Signature: sig.Of(data)}, body, 0, cutSig) {
			t.Fatalf("%s: not installed", k)
		}
		_, b := tab.Lookup(k)
		if !bytes.Equal(b.Bytes(), data) {
			t.Fatalf("%s reads back %q, want %q", k, b.Bytes(), data)
		}
		return b
	}
	view := func(tail string) []byte { // exact-size, as the wire decodes a body
		v := make([]byte, n+len(tail))
		copy(v[copy(v, cut):], tail)
		return v
	}
	data := view("\n-- retrieved for amy --\n")
	if b := install("amy", data); &b.Head[0] != &data[0] || &b.Tail[0] != &data[n] || b.HeadSig != cutSig {
		t.Fatal("the first view's parts were not kept where they lie")
	}
	if got, want := tab.BytesStored(), int64(len(data)); got != want {
		t.Fatalf("BytesStored = %d, want the view's %d: the base is charged to no one", got, want)
	}
	if got, want := tab.blobs.BytesResident(), int64(len(data)); got != want {
		t.Fatalf("BytesResident = %d, want base and tail, %d", got, want)
	}
	data2 := view("\n-- retrieved for bob --\n")
	if b := install("bob", data2); &b.Head[0] != &data[0] || &b.Tail[0] == &data2[n] {
		t.Fatal("a later view does not share the base, or keeps its own buffer instead of a copy of its tail")
	}
	forged := []byte("not the universal output, but as long")
	if b := install("eve", forged); len(b.Tail) != 0 || !b.HeadSig.IsZero() {
		t.Fatal("a view whose head is not the base's bytes was tail-shared")
	}
	if got, want := tab.blobs.BytesResident(), int64(len(data)+len(data2)-n+len(forged)); got != want {
		t.Fatalf("BytesResident = %d, want %d", got, want)
	}
	tab.drop("amy")
	tab.drop("bob")
	if _, ok := tab.blobs.blobs[cutSig]; ok {
		t.Fatal("the base outlived its last tail")
	}
	if got := tab.blobs.BytesResident(); got != int64(len(forged)) {
		t.Fatalf("with the views gone BytesResident = %d, want %d", got, len(forged))
	}
}

// TestReadFromAResidentPersonalCutCopiesNothing: a read whose
// (doc, user) entry was dropped while its personal cut stayed resident
// resumes from that cut, which no transform follows. The cut is
// tail-shared; its parts go through the staged read and the install
// unjoined, the entry shares the cut's blob again, and the read
// allocates nothing the size of the view.
func TestReadFromAResidentPersonalCutCopiesNothing(t *testing.T) {
	const size = 64 << 10
	w := newWorld(t, Options{Memoize: true})
	// The provider hands out its own bytes, so a read's only
	// body-sized allocation would be a join.
	bits := &countingProvider{payload: bytes.Repeat(memoContent, size/len(memoContent))}
	if _, err := w.space.CreateDocument("d", "amy", bits); err != nil {
		t.Fatal(err)
	}
	for _, p := range []property.Active{property.NewSpellCorrector(time.Millisecond), property.NewLineNumberer(time.Millisecond)} {
		if err := w.space.Attach("d", "", docspace.Universal, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.space.Attach("d", "amy", docspace.Personal, property.NewWatermarker("amy", 0)); err != nil {
		t.Fatal(err)
	}
	view := w.read(t, "d", "amy")
	k := Key("d", "amy")
	read := func() {
		w.cache.tab.drop(k)
		body, _, err := w.cache.ReadWithInfo("d", "amy")
		if err != nil || len(body.Tail) == 0 || body.Len() != len(view) || !bytes.HasPrefix(view, body.Head) || !bytes.HasSuffix(view, body.Tail) {
			t.Fatalf("the re-read is not the tail-shared view: %d-byte tail, %v", len(body.Tail), err)
		}
		if e, installed := w.cache.tab.Lookup(k); e == nil || &installed.Tail[0] != &body.Tail[0] {
			t.Fatal("the re-read's entry does not share the personal cut's blob")
		}
	}
	read()
	before := w.cache.Stats()
	const reads = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&m1)
	after := w.cache.Stats()
	if after.PrefixHits-before.PrefixHits != reads || after.UniversalStageRuns != before.UniversalStageRuns {
		t.Fatalf("the re-reads did not all resume from the personal cut: %+v, then %+v", before, after)
	}
	if per := (m1.TotalAlloc - m0.TotalAlloc) / reads; per >= uint64(len(view))/2 {
		t.Fatalf("a re-read from the resident cut allocates %d bytes of a %d-byte view", per, len(view))
	}
}

// genBumper touches no bytes; once armed, the next read that wraps it
// invalidates another user's view of the document, which moves the
// document's generation under the read.
type genBumper struct {
	property.Base
	tab   *Table
	armed bool
}

func (g *genBumper) WrapInput(*property.ReadContext) stream.Transform {
	if g.armed {
		g.armed = false
		g.tab.DropUser("d", "bob")
	}
	return nil
}

// TestUninstalledTwoPartMissCarriesItsSignature: a miss that ends on a
// tail-shared cut but may not install its entry (the document's
// generation moved under it) still answers with the cut's signature,
// so nobody downstream hashes the head alone for the whole body.
func TestUninstalledTwoPartMissCarriesItsSignature(t *testing.T) {
	w := newWorld(t, Options{Memoize: true})
	setupMemoDoc(t, w, []string{"amy"})
	bump := &genBumper{Base: property.Base{PropName: "gen-bumper"}, tab: w.cache.tab}
	if err := w.space.Attach("d", "amy", docspace.Personal, bump); err != nil {
		t.Fatal(err)
	}
	view := w.read(t, "d", "amy")
	w.cache.tab.drop(Key("d", "amy"))
	bump.armed = true
	body, info, err := w.cache.ReadWithInfo("d", "amy")
	if err != nil || len(body.Tail) == 0 || !bytes.Equal(body.Bytes(), view) {
		t.Fatalf("the re-read is not the tail-shared view: %d-byte tail, %v", len(body.Tail), err)
	}
	if w.cache.Contains("d", "amy") {
		t.Fatal("the entry went in although the generation moved under the read")
	}
	if info.Signature != sig.Of(view) {
		t.Fatalf("the answer's signature is %v, want the view's %v", info.Signature, sig.Of(view))
	}
}

// TestRaceTailSharedHitsWhileBaseChurns: hits serve tail-shared views
// while their base cut is dropped, evicted and reinstalled and the
// views themselves come and go. Every hit must return the view's exact
// bytes; the race detector checks that reading a body needs no lock.
func TestRaceTailSharedHitsWhileBaseChurns(t *testing.T) {
	const users = 4
	w := newTailUniverse(1, users)
	cut, cutSig := w.cuts[0], sig.Of(w.cuts[0])
	tab := NewTable(replace.NewGDS(), nil)
	cutKey := interKey(sig.Of([]byte("d")), cutSig)
	installCut := func() {
		tab.Install(cutKey, &Entry{Doc: "d", Signature: cutSig, Cost: time.Millisecond, cut: true}, stream.Body{Head: cut}, 0, sig.Zero)
	}
	installView := func(u int) {
		v := w.views[0][u]
		tab.Install(Key("d", fmt.Sprint(u)), &Entry{Doc: "d", User: fmt.Sprint(u), Signature: sig.Of(v), Cost: time.Millisecond}, stream.Body{Head: v}, tab.Gen("d"), cutSig)
	}
	installCut()
	for u := 0; u < users; u++ {
		installView(u)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var hits [users]atomic.Int64
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			k := Key("d", fmt.Sprint(u))
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, b := tab.Lookup(k)
				if e == nil {
					installView(u)
					continue
				}
				if !tab.Confirm(k, e) {
					continue
				}
				hits[u].Add(1)
				if b.Len() != len(w.views[0][u]) || !bytes.HasPrefix(w.views[0][u], b.Head) || !bytes.HasSuffix(w.views[0][u], b.Tail) {
					t.Errorf("user %d: a hit served bytes that are not the view", u)
					return
				}
			}
		}(u)
	}
	// Churn until every reader has hit a few hundred times.
	done := func() bool {
		for u := range hits {
			if hits[u].Load() < 300 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(20 * time.Second)
	for round := 0; !done() || round < 300; round++ {
		if time.Now().After(deadline) {
			t.Error("the readers made no progress under the churn")
			break
		}
		switch round % 4 {
		case 0:
			tab.drop(cutKey)
		case 1:
			tab.Resize(int64(len(cut))) // evicts down to about one blob
			tab.Resize(0)
		case 2:
			installCut()
		case 3:
			tab.DropUser("d", fmt.Sprint(round%users))
		}
	}
	close(stop)
	wg.Wait()
	tab.Close()
	if tab.BytesStored() != 0 || tab.blobs.BytesResident() != 0 {
		t.Fatalf("closed table: %d bytes stored, %d resident", tab.BytesStored(), tab.blobs.BytesResident())
	}
}

// TestRaceTailSharedPromotesWhileBaseChurns: after a restart, users'
// reads promote their views from disk onto the document's head while
// another goroutine drops the document and evicts everything, the head
// with it, so a promote finds the head resident, gone, or put back by
// another user's promote between its read and its install. Every read
// must return the user's exact view, the document index must audit
// clean, and the closed table must hold nothing.
func TestRaceTailSharedPromotesWhileBaseChurns(t *testing.T) {
	const users = 4
	names := memoUsers(users)
	d := newDurableWorld(t, Options{Memoize: true})
	setupMemoDoc(t, d.world, names)
	views := make([][]byte, users)
	for i, u := range names {
		views[i] = d.read(t, "d", u)
	}
	d.crashAndRestart()
	c := d.cache
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads [users]atomic.Int64
	for i, u := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, _, err := c.ReadWithInfo("d", u)
				if err != nil || !bytes.Equal(body.Bytes(), views[i]) {
					t.Errorf("%s: read %d + %d bytes that are not the view (%v)", u, len(body.Head), len(body.Tail), err)
					return
				}
				reads[i].Add(1)
			}
		}()
	}
	done := func() bool {
		for i := range reads {
			if reads[i].Load() < 200 {
				return false
			}
		}
		return c.Stats().StorePromotions >= 100
	}
	deadline := time.Now().Add(20 * time.Second)
	for round := 0; !done() || round < 300; round++ {
		if time.Now().After(deadline) {
			t.Error("the readers made no progress under the churn")
			break
		}
		if round%2 == 0 {
			c.tab.DropDoc("d") // no epoch goes to the store: the entries stay promotable
		} else {
			c.tab.Resize(1) // evicts what no flight pins, the head's last holders with the rest
			c.tab.Resize(0)
		}
	}
	close(stop)
	wg.Wait()
	if err := c.tab.Audit(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if c.tab.BytesStored() != 0 || c.tab.blobs.BytesResident() != 0 {
		t.Fatalf("closed table: %d bytes stored, %d resident", c.tab.BytesStored(), c.tab.blobs.BytesResident())
	}
}
