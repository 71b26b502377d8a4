package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"placeless/internal/replace"
	"placeless/internal/sig"
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
		shared, whole := NewTable(replace.NewGDS()), NewTable(replace.NewGDS())
		want := map[string][]byte{} // what each key was last installed with
		fail := func(format string, args ...any) bool {
			t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
			return false
		}
		install := func(k string, e Entry, data []byte, base sig.Signature) {
			e2 := e
			okS := shared.Install(k, &e, data, shared.Gen(e.Doc), base)
			okW := whole.Install(k, &e2, data, whole.Gen(e.Doc), sig.Zero)
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
			if r, s := shared.stats.bytesResident.Load(), shared.BytesStored(); r > s || r < 0 {
				return fail("step %d: BytesResident %d, BytesStored %d", step, r, s)
			}
			if r, s := whole.stats.bytesResident.Load(), whole.BytesStored(); r != s {
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
				install(cutKey, Entry{Doc: doc, Signature: sig.Of(w.cuts[i]), Cost: time.Duration(1+i) * time.Millisecond, cut: true}, w.cuts[i], sig.Zero)
			case op < 5:
				// A personal cut on its universal cut, as leadCut installs it.
				k := interKey(sig.Of([]byte(doc)), sig.Of(w.views[i][u]))
				install(k, Entry{Doc: doc, User: fmt.Sprint(u), Signature: sig.Of(w.views[i][u]), Cost: time.Millisecond, cut: true}, w.views[i][u], sig.Of(w.cuts[i]))
			case op < 7:
				// The (doc, user) entry, as miss installs it.
				install(Key(doc, fmt.Sprint(u)), Entry{Doc: doc, User: fmt.Sprint(u), Signature: sig.Of(w.views[i][u]), Cost: 2 * time.Millisecond}, w.views[i][u], sig.Of(w.cuts[i]))
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
		if shared.BytesStored() != 0 || shared.stats.bytesResident.Load() != 0 || len(shared.blobs) != 0 {
			return fail("emptied: %d bytes stored, %d resident, %d blobs", shared.BytesStored(), shared.stats.bytesResident.Load(), len(shared.blobs))
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTailSharingInstall pins the storage rule: a view installed on its
// cut keeps only its tail and reads back whole; one whose bytes do not
// begin with the base's is kept whole; and a view of a view is built on
// the whole blob underneath, so the chain stays one level deep.
func TestTailSharingInstall(t *testing.T) {
	tab := NewTable(replace.NewGDS())
	cut := []byte("the universal output")
	view := []byte("the universal output\n-- retrieved for amy --\n")
	deeper := []byte("the universal output\n-- retrieved for amy --\n-- and audited --\n")
	other := []byte("another output entirely")
	install := func(k string, data []byte, base sig.Signature) Body {
		t.Helper()
		if !tab.Install(k, &Entry{Doc: "d", User: k, Signature: sig.Of(data)}, data, 0, base) {
			t.Fatalf("%s: not installed", k)
		}
		_, b := tab.Lookup(k)
		if !bytes.Equal(b.Bytes(), data) {
			t.Fatalf("%s reads back %q, want %q", k, b.Bytes(), data)
		}
		return b
	}
	install("cut", cut, sig.Zero)
	if b := install("view", view, sig.Of(cut)); string(b.Tail) != "\n-- retrieved for amy --\n" {
		t.Fatalf("the view keeps %d bytes of its own, want its %d-byte tail", len(b.Tail), len(view)-len(cut))
	}
	if b := install("deeper", deeper, sig.Of(view)); len(b.Tail) != len(deeper)-len(cut) || &b.Head[0] != &tab.blobs[sig.Of(cut)].data[0] {
		t.Fatal("a view of a view is not built on the whole blob underneath")
	}
	if b := install("other", other, sig.Of(cut)); len(b.Tail) != 0 {
		t.Fatal("bytes that do not begin with the base's were tail-shared")
	}
	resident := int64(len(cut) + (len(view) - len(cut)) + (len(deeper) - len(cut)) + len(other))
	if got := tab.stats.bytesResident.Load(); got != resident {
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
	if got := tab.stats.bytesResident.Load(); got != resident {
		t.Fatalf("after the cut's drop BytesResident = %d, want %d", got, resident)
	}
	if _, b := tab.Lookup("view"); !bytes.Equal(b.Bytes(), view) {
		t.Fatal("the view lost its head with the cut")
	}
	tab.drop("view")
	tab.drop("deeper")
	if got := tab.stats.bytesResident.Load(); got != int64(len(other)) {
		t.Fatalf("with the views gone BytesResident = %d, want the other blob's %d", got, len(other))
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
	tab := NewTable(replace.NewGDS())
	cutKey := interKey(sig.Of([]byte("d")), cutSig)
	installCut := func() {
		tab.Install(cutKey, &Entry{Doc: "d", Signature: cutSig, Cost: time.Millisecond, cut: true}, cut, 0, sig.Zero)
	}
	installView := func(u int) {
		v := w.views[0][u]
		tab.Install(Key("d", fmt.Sprint(u)), &Entry{Doc: "d", User: fmt.Sprint(u), Signature: sig.Of(v), Cost: time.Millisecond}, v, tab.Gen("d"), cutSig)
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
	if tab.BytesStored() != 0 || tab.stats.bytesResident.Load() != 0 {
		t.Fatalf("closed table: %d bytes stored, %d resident", tab.BytesStored(), tab.stats.bytesResident.Load())
	}
}
