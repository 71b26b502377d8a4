package docspace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"placeless/internal/event"
	"placeless/internal/property"
	"placeless/internal/sig"
	"placeless/internal/stream"
)

// stageFixture builds a document with a memoizable universal chain
// (spell correct, then summarize) and a personal watermark for each of
// two users.
func stageFixture(t *testing.T) *fixture {
	t.Helper()
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("teh first line is recieve\nsecond line\nthird line\nfourth line\n"))
	if err := f.space.Attach("d", "", Universal, property.NewSpellCorrector(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := f.space.Attach("d", "", Universal, property.NewSummarizer(3, time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := f.space.Attach("d", "eyal", Personal, property.NewWatermarker("eyal", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.space.AddReference("d", "paul"); err != nil {
		t.Fatal(err)
	}
	if err := f.space.Attach("d", "paul", Personal, property.NewWatermarker("paul", 0)); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) fingerprint(t *testing.T, doc string) sig.Signature {
	t.Helper()
	fp, err := f.space.UniversalFingerprint(doc)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestFingerprintStableAcrossReads(t *testing.T) {
	f := stageFixture(t)
	fp1 := f.fingerprint(t, "d")
	if _, _, err := f.space.ReadDocument("d", "eyal"); err != nil {
		t.Fatal(err)
	}
	if fp2 := f.fingerprint(t, "d"); fp2 != fp1 {
		t.Fatal("fingerprint changed without a chain mutation")
	}
}

// TestFingerprintBumpsOnChainMutations is the regression guard for the
// paper's invalidation causes 2 and 3: every mutation of the universal
// chain must move the fingerprint, so previously memoized intermediates
// become unreachable.
func TestFingerprintBumpsOnChainMutations(t *testing.T) {
	f := stageFixture(t)
	fp := f.fingerprint(t, "d")

	// Cause 2: attach.
	if err := f.space.Attach("d", "", Universal, property.NewLineNumberer(0)); err != nil {
		t.Fatal(err)
	}
	fpAttach := f.fingerprint(t, "d")
	if fpAttach == fp {
		t.Fatal("Attach did not change the fingerprint")
	}

	// Cause 2: replace (the spelling-corrector upgrade).
	upgraded := property.NewSpellCorrector(time.Millisecond)
	upgraded.Version = 2
	if err := f.space.Replace("d", "", Universal, "spell-correct", upgraded); err != nil {
		t.Fatal(err)
	}
	fpReplace := f.fingerprint(t, "d")
	if fpReplace == fpAttach {
		t.Fatal("Replace did not change the fingerprint")
	}

	// Cause 3: reorder.
	if err := f.space.Reorder("d", "", Universal, []string{"summarize-3", "spell-correct", "line-number"}); err != nil {
		t.Fatal(err)
	}
	fpReorder := f.fingerprint(t, "d")
	if fpReorder == fpReplace {
		t.Fatal("Reorder did not change the fingerprint")
	}

	// Cause 2: detach.
	if err := f.space.Detach("d", "", Universal, "line-number"); err != nil {
		t.Fatal(err)
	}
	if f.fingerprint(t, "d") == fpReorder {
		t.Fatal("Detach did not change the fingerprint")
	}
}

func TestFingerprintIsContentDefined(t *testing.T) {
	// The fingerprint digests the chain, it is not a counter: undoing
	// a reorder restores the original value, making the old
	// intermediates correctly reachable again.
	f := stageFixture(t)
	fp := f.fingerprint(t, "d")
	if err := f.space.Reorder("d", "", Universal, []string{"summarize-3", "spell-correct"}); err != nil {
		t.Fatal(err)
	}
	if f.fingerprint(t, "d") == fp {
		t.Fatal("reorder did not change the fingerprint")
	}
	if err := f.space.Reorder("d", "", Universal, []string{"spell-correct", "summarize-3"}); err != nil {
		t.Fatal(err)
	}
	if f.fingerprint(t, "d") != fp {
		t.Fatal("restoring the order did not restore the fingerprint")
	}
}

func TestFingerprintIgnoresPersonalAndMachinery(t *testing.T) {
	f := stageFixture(t)
	fp := f.fingerprint(t, "d")

	if err := f.space.Attach("d", "paul", Personal, property.NewUppercaser(0)); err != nil {
		t.Fatal(err)
	}
	if f.fingerprint(t, "d") != fp {
		t.Fatal("personal attachment changed the universal fingerprint")
	}

	key, err := f.space.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	pair := NewNotifierPair(f.space, "notifier:test", func(event.Event) {}, func(event.Event) {})
	defer pair.Close()
	if err := pair.Ensure("d", "eyal"); err != nil {
		t.Fatal(err)
	}
	if f.fingerprint(t, "d") != fp {
		t.Fatal("a cache's notifiers changed the universal fingerprint")
	}
	if got, err := f.space.ContentKey("d", "eyal"); err != nil || got != key {
		t.Fatalf("a cache's notifiers moved the content key: %+v -> %+v (%v)", key, got, err)
	}
}

// TestChainFingerprintGolden pins the fingerprint encoding to bytes:
// the prefix fingerprints of one fixed chain — a universal memoizable
// transform, an event-only property, a personal transform and a
// non-memoizable one — and the ContentKeys of a user behind that chain
// and of one behind a memoizable personal chain. Cut keys persisted by
// the disk tier and promoted after a restart are these values, so a
// change that moves one orphans every durable entry written before it.
//
// Re-pinned once, when signatures moved from MD5 to SHA-256 truncated
// to 128 bits: every value here is a signature, and the dictionary
// digest inside spell-correct's memo key changed hash too. A store
// written before that change recovers with no blobs indexed
// (TestOpenMD5StoreRecoversEmpty in internal/store).
func TestChainFingerprintGolden(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("teh first line is recieve\nsecond line\n"))
	if _, err := f.space.AddReference("d", "paul"); err != nil {
		t.Fatal(err)
	}
	opaque := &property.Transformer{Base: property.Base{PropName: "opaque"}, ReadTransform: bytes.ToUpper, Version: 1}
	for _, a := range []struct {
		user string
		p    property.Active
	}{
		{"", property.NewSpellCorrector(time.Millisecond)},
		{"", property.NewAuditTrail()},
		{"eyal", property.NewWatermarker("eyal", 0)},
		{"eyal", opaque},
		{"paul", property.NewWatermarker("paul", 0)},
	} {
		level := Universal
		if a.user != "" {
			level = Personal
		}
		if err := f.space.Attach("d", a.user, level, a.p); err != nil {
			t.Fatal(err)
		}
	}
	r, err := f.space.Reference("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	_, _, fps, _ := f.space.snapshotChains(r.base, r)
	for i, fp := range fps {
		fmt.Fprintf(&got, "prefix %d %x\n", i, fp[:])
	}
	for _, u := range []string{"eyal", "paul"} {
		k, err := f.space.ContentKey("d", u)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "key %s %x %x %x %v\n", u, k.SourceSig[:], k.UniversalFP[:], k.PersonalFP[:], k.Memoizable)
	}
	const want = `prefix 0 e3b0c44298fc1c149afbf4c8996fb924
prefix 1 47fe2421afbe4ead2c51f768238cb4fa
prefix 2 6d1b20e19279462b9d1361244cbf77b9
prefix 3 45303cbf9f27bf045744f1a55421f9ee
prefix 4 40cb6e5507a2aeef5bd7c46bdf66f73d
key eyal b6eb46e1750e391772c5299e7fa0a68d 6d1b20e19279462b9d1361244cbf77b9 0fae645ad199e360a0d195630367948c false
key paul b6eb46e1750e391772c5299e7fa0a68d 6d1b20e19279462b9d1361244cbf77b9 143122dcf1f4cdf2fcec185526569be1 true
`
	if got.String() != want {
		t.Fatalf("chain fingerprints moved:\ngot:\n%swant:\n%s", got.String(), want)
	}
}

func TestStagedReadMatchesPlainRead(t *testing.T) {
	f := stageFixture(t)
	memo := newFakePrefixMemo()
	for _, user := range []string{"eyal", "paul", "eyal"} {
		plain, plainRes, err := f.space.ReadDocument("d", user)
		if err != nil {
			t.Fatal(err)
		}
		staged, stagedRes, trace, err := f.space.ReadDocumentStaged("d", user, memo)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain, staged.Bytes()) {
			t.Fatalf("user %s: staged read diverged:\nplain:  %q\nstaged: %q", user, plain, staged.Bytes())
		}
		if trace.Cuts == 0 {
			t.Fatalf("user %s: memoizable chain offered no cut", user)
		}
		// WrapInput runs on every read in both modes, so the
		// cache-facing result must be identical.
		if plainRes.Cacheability != stagedRes.Cacheability || plainRes.Cost != stagedRes.Cost {
			t.Fatalf("user %s: read results diverged: %+v vs %+v", user, plainRes, stagedRes)
		}
	}
	if memo.universalComputes != 1 {
		t.Fatalf("universal stage computed %d times for 3 reads of one (content, chain), want 1", memo.universalComputes)
	}
}

// personalAttacher is a base property that touches no bytes and, the
// first time a read calls its hook, attaches add to user's reference:
// a change to the reader's personal chain landing inside a read.
type personalAttacher struct {
	property.Base
	space *Space
	user  string
	add   property.Active
	fired bool
}

func (a *personalAttacher) WrapInput(*property.ReadContext) stream.Transform {
	if !a.fired {
		a.fired = true
		if err := a.space.Attach("d", a.user, Personal, a.add); err != nil {
			panic(err)
		}
	}
	return nil
}

// TestReadsSnapshotBothChainsAtOnce: the plain read, like the staged
// one every cache miss runs, takes both chains it executes in one
// critical section before any hook runs, so a base hook that changes
// the reader's personal chain mid-read leaves both reads' bytes alike,
// and the next read of either kind sees the new chain.
func TestReadsSnapshotBothChainsAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(*fixture) ([]byte, error)
	}{
		{"plain", func(f *fixture) ([]byte, error) {
			data, _, err := f.space.ReadDocument("d", "eyal")
			return data, err
		}},
		{"staged", func(f *fixture) ([]byte, error) {
			data, _, _, err := f.space.ReadDocumentStaged("d", "eyal", newFakePrefixMemo())
			return data.Bytes(), err
		}},
	} {
		f := newFixture(t)
		f.addDoc(t, "d", "eyal", "/d", []byte("quiet words"))
		hook := &personalAttacher{
			Base:  property.Base{PropName: "personal-attacher"},
			space: f.space, user: "eyal", add: property.NewUppercaser(0),
		}
		if err := f.space.Attach("d", "", Universal, hook); err != nil {
			t.Fatal(err)
		}
		for i, want := range []string{"quiet words", "QUIET WORDS"} {
			got, err := tc.read(f)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Fatalf("%s read %d = %q, want %q", tc.name, i+1, got, want)
			}
		}
	}
}

func TestStagedReadSavesUniversalTime(t *testing.T) {
	// On an intermediate hit the universal transforms' simulated
	// execution time is not charged; the personal suffix's is.
	f := stageFixture(t)
	memo := newFakePrefixMemo()
	if _, _, trace, err := f.space.ReadDocumentStaged("d", "eyal", memo); err != nil || trace.Hit {
		t.Fatalf("warm-up: trace=%+v err=%v", trace, err)
	}
	start := f.clk.Now()
	_, _, trace, err := f.space.ReadDocumentStaged("d", "paul", memo)
	if err != nil || !trace.Hit {
		t.Fatalf("trace=%+v err=%v", trace, err)
	}
	elapsedHit := f.clk.Now().Sub(start)
	// The two universal transforms charge 1ms each when executed;
	// a hit must skip both.
	if elapsedHit >= 2*time.Millisecond {
		t.Fatalf("intermediate hit still charged universal time: %v", elapsedHit)
	}
	if trace.DeepestHit < 0 {
		t.Fatalf("no memoized prefix served on a hit: %+v", trace)
	}
}

// poisonedReads attaches p to stageFixture's universal chain at the
// head or the tail and reads twice as each user. At the head no cut
// survives, so the store is never consulted; at the tail the two cuts
// before p are still shared, but nothing at or after p is ever stored
// or served. Either way the universal stage is never reported
// memoized and every read equals the plain one.
func poisonedReads(t *testing.T, p property.Active, head bool, between func()) {
	t.Helper()
	f := stageFixture(t)
	if err := f.space.Attach("d", "", Universal, p); err != nil {
		t.Fatal(err)
	}
	wantCuts := 2
	if head {
		if err := f.space.Reorder("d", "", Universal, []string{p.Name(), "spell-correct", "summarize-3"}); err != nil {
			t.Fatal(err)
		}
		wantCuts = 0
	}
	memo := newFakePrefixMemo()
	for round := 0; round < 2; round++ {
		for _, user := range []string{"eyal", "paul"} {
			plain, _, err := f.space.ReadDocument("d", user)
			if err != nil {
				t.Fatal(err)
			}
			staged, _, trace, err := f.space.ReadDocumentStaged("d", user, memo)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plain, staged.Bytes()) {
				t.Fatalf("round %d user %s: poisoned chain diverged: %q vs %q", round, user, plain, staged.Bytes())
			}
			if trace.Hit || trace.Cuts != wantCuts {
				t.Fatalf("round %d user %s: trace = %+v, want %d cuts and no universal hit", round, user, trace, wantCuts)
			}
		}
		if between != nil {
			between()
		}
	}
	if memo.universalComputes != 0 || len(memo.store) != wantCuts {
		t.Fatalf("store holds %d cuts (%d universal), want %d before the poison and none after",
			len(memo.store), memo.universalComputes, wantCuts)
	}
	if head && memo.calls != 0 {
		t.Fatal("memo store consulted for a chain with no surviving cut")
	}
}

func TestNonMemoizablePropertyDisablesStaging(t *testing.T) {
	for _, head := range []bool{true, false} {
		// A byte-touching universal property without a memo contract: a
		// hand-built transformer (no MemoID), the cautious default.
		opaque := &property.Transformer{
			Base:          property.Base{PropName: "opaque"},
			ReadTransform: bytes.ToUpper,
			Version:       1,
		}
		poisonedReads(t, opaque, head, nil)
	}
}

func TestExternalInfoDisablesStaging(t *testing.T) {
	// Paper invalidation cause 4: a property embedding external
	// information must force re-execution from its position on every
	// read, so a changed value shows up even with a warm store.
	for _, head := range []bool{true, false} {
		quote := property.NewExternalVar("stock", 42)
		poisonedReads(t, property.NewExternalInfo(quote, property.ByVerifier, 0), head,
			func() { quote.Set(quote.Value() + 1) })
	}
}

func TestStagedReadWithNilMemoFallsBack(t *testing.T) {
	f := stageFixture(t)
	plain, _, err := f.space.ReadDocument("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	staged, _, trace, err := f.space.ReadDocumentStaged("d", "eyal", nil)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Cuts != 0 {
		t.Fatal("nil store must disable staging")
	}
	if !bytes.Equal(plain, staged.Bytes()) {
		t.Fatalf("nil-store fallback diverged: %q vs %q", plain, staged.Bytes())
	}
}

// TestStagedWithoutCutsMatchesReference: with no store, or behind a
// universal chain whose head has no memo contract, a staged read is
// offered no cuts. It must still equal the lazy reference read — in
// bytes, in everything the ReadResult tells the cache, in simulated
// time charged, and in the getInputStream events both levels see — and
// must report its three stage timings.
func TestStagedWithoutCutsMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name       string
		poisonHead bool
		memo       *fakePrefixMemo
	}{
		{name: "nil store"},
		{name: "head not memoizable", poisonHead: true, memo: newFakePrefixMemo()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			f.space.SetAccessOverhead(2 * time.Millisecond)
			f.addDoc(t, "d", "eyal", "/d", []byte("teh first line is recieve\nsecond line\nthird line\nfourth line\n"))
			uTrail, pTrail := property.NewAuditTrail(), property.NewAuditTrail()
			var universal []property.Active
			if tc.poisonHead {
				universal = append(universal, &property.Transformer{
					Base:          property.Base{PropName: "opaque"},
					ReadTransform: bytes.ToUpper,
					ExecCost:      time.Millisecond,
					Version:       1,
				})
			}
			universal = append(universal,
				property.NewSpellCorrector(time.Millisecond),
				property.NewCollection("set", "d", "sibling"),
				property.NewSummarizer(3, time.Millisecond),
				uTrail)
			for _, p := range universal {
				if err := f.space.Attach("d", "", Universal, p); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range []property.Active{property.NewWatermarker("eyal", time.Millisecond), pTrail} {
				if err := f.space.Attach("d", "eyal", Personal, p); err != nil {
					t.Fatal(err)
				}
			}

			t0 := f.clk.Now()
			plain, want, err := f.space.ReadDocument("d", "eyal")
			if err != nil {
				t.Fatal(err)
			}
			plainTook := f.clk.Now().Sub(t0)
			if len(want.Related) == 0 || len(want.Verifiers) == 0 || want.Cost == 0 || want.Cacheability != property.CacheWithEvents {
				t.Fatalf("reference result exercises too little: %+v", want)
			}

			t0 = f.clk.Now()
			var memo PrefixIntermediates
			if tc.memo != nil {
				memo = tc.memo
			}
			staged, got, trace, err := f.space.ReadDocumentStaged("d", "eyal", memo)
			if err != nil {
				t.Fatal(err)
			}
			if took := f.clk.Now().Sub(t0); took != plainTook {
				t.Errorf("staged read charged %v of simulated time, reference %v", took, plainTook)
			}
			if !bytes.Equal(plain, staged.Bytes()) {
				t.Errorf("bytes diverged:\nreference: %q\nstaged:    %q", plain, staged.Bytes())
			}
			if got.Cacheability != want.Cacheability || got.Cost != want.Cost ||
				len(got.Verifiers) != len(want.Verifiers) || !reflect.DeepEqual(got.Related, want.Related) {
				t.Errorf("ReadResult diverged:\nreference: %+v\nstaged:    %+v", want, got)
			}
			if trace.Cuts != 0 || trace.Hit || trace.Key != (ContentKey{}) {
				t.Errorf("trace = %+v, want no cuts offered and the source not hashed", trace)
			}
			if trace.BitFetchDur <= 0 || trace.UniversalDur <= 0 || trace.PersonalDur <= 0 {
				t.Errorf("stage timings = %v/%v/%v, want all set", trace.BitFetchDur, trace.UniversalDur, trace.PersonalDur)
			}
			if tc.memo != nil && tc.memo.calls != 0 {
				t.Errorf("store consulted %d times with no cut to offer", tc.memo.calls)
			}
			// One getInputStream per read at each level: two reads so far.
			if u, p := len(uTrail.Records()), len(pTrail.Records()); u != 2 || p != 2 {
				t.Errorf("audit records universal/personal = %d/%d, want 2/2", u, p)
			}
		})
	}
}

// TestContentKeyTracksEveryInvalidationCause pins the durable tier's
// promotion check: the content key must change exactly when one of the
// paper's key-visible invalidation causes fires — content written
// (source half), chain mutated at either level (fingerprint halves) —
// and must stay bit-identical across reads that change nothing.
func TestContentKeyTracksEveryInvalidationCause(t *testing.T) {
	f := stageFixture(t)
	k1, err := f.space.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if !k1.Memoizable {
		t.Fatal("fully memoizable chain reported non-memoizable")
	}
	if _, _, err := f.space.ReadDocument("d", "eyal"); err != nil {
		t.Fatal(err)
	}
	k2, err := f.space.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("content key drifted without a mutation: %+v vs %+v", k1, k2)
	}

	// Different users share source and universal halves but differ in
	// the personal fingerprint (distinct watermark chains).
	kPaul, err := f.space.ContentKey("d", "paul")
	if err != nil {
		t.Fatal(err)
	}
	if kPaul.SourceSig != k1.SourceSig || kPaul.UniversalFP != k1.UniversalFP {
		t.Fatal("universal key halves differ across users")
	}
	if kPaul.PersonalFP == k1.PersonalFP {
		t.Fatal("distinct personal chains share a personal fingerprint")
	}

	// Cause 1: content written through the repository.
	f.src.Store("/d", []byte("entirely new content\n"))
	k3, err := f.space.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if k3.SourceSig == k1.SourceSig {
		t.Fatal("source signature unchanged after a content write")
	}
	if k3.UniversalFP != k1.UniversalFP || k3.PersonalFP != k1.PersonalFP {
		t.Fatal("content write moved a fingerprint half")
	}

	// Cause 2 at the universal level.
	if err := f.space.Attach("d", "", Universal, property.NewUppercaser(0)); err != nil {
		t.Fatal(err)
	}
	k4, err := f.space.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if k4.UniversalFP == k3.UniversalFP {
		t.Fatal("universal fingerprint unchanged after a universal attach")
	}
	if k4.PersonalFP != k3.PersonalFP {
		t.Fatal("universal attach moved the personal fingerprint")
	}

	// Cause 2 at the personal level.
	if err := f.space.Attach("d", "eyal", Personal, property.NewLineNumberer(0)); err != nil {
		t.Fatal(err)
	}
	k5, err := f.space.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if k5.PersonalFP == k4.PersonalFP {
		t.Fatal("personal fingerprint unchanged after a personal attach")
	}
	if k5.UniversalFP != k4.UniversalFP {
		t.Fatal("personal attach moved the universal fingerprint")
	}
}

// TestContentKeyNonMemoizablePersonal: a byte-touching personal
// property without a memo contract poisons the whole key — results
// transformed by it must never be persisted.
func TestContentKeyNonMemoizablePersonal(t *testing.T) {
	f := stageFixture(t)
	opaque := &property.Transformer{
		Base:          property.Base{PropName: "opaque-personal"},
		ReadTransform: func(b []byte) []byte { return b },
		Version:       1,
	}
	if err := f.space.Attach("d", "eyal", Personal, opaque); err != nil {
		t.Fatal(err)
	}
	k, err := f.space.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if k.Memoizable {
		t.Fatal("non-memoizable personal transform left the key memoizable")
	}
	// The other user's chain is untouched and stays provable.
	kPaul, err := f.space.ContentKey("d", "paul")
	if err != nil {
		t.Fatal(err)
	}
	if !kPaul.Memoizable {
		t.Fatal("unrelated user's key poisoned")
	}
}

// TestContentKeyMemoizableFollowsTheChain: the key's Memoizable is
// cached with the chain's fingerprint, so it must flip when a property
// without a memo contract is attached and flip back when it is
// detached, at either level. An event-only property without one
// returns no transform and leaves the key memoizable.
func TestContentKeyMemoizableFollowsTheChain(t *testing.T) {
	opaque := func() property.Active {
		return &property.Transformer{
			Base:          property.Base{PropName: "opaque"},
			ReadTransform: func(b []byte) []byte { return b },
			Version:       1,
		}
	}
	for _, row := range []struct {
		name     string
		user     string
		level    Level
		prop     property.Active
		attached bool // Memoizable while prop is attached
	}{
		{"universal transform", "", Universal, opaque(), false},
		{"personal transform", "eyal", Personal, opaque(), false},
		{"universal event-only", "", Universal, property.NewAuditTrail(), true},
		{"personal event-only", "eyal", Personal, property.NewAuditTrail(), true},
	} {
		t.Run(row.name, func(t *testing.T) {
			f := stageFixture(t)
			memoizable := func(step string, want bool) {
				t.Helper()
				for pass := 0; pass < 2; pass++ { // computed, then cached
					k, err := f.space.ContentKey("d", "eyal")
					if err != nil {
						t.Fatal(err)
					}
					if k.Memoizable != want {
						t.Fatalf("%s, pass %d: Memoizable %v, want %v", step, pass, k.Memoizable, want)
					}
				}
			}
			memoizable("before the attach", true)
			if err := f.space.Attach("d", row.user, row.level, row.prop); err != nil {
				t.Fatal(err)
			}
			memoizable("attached", row.attached)
			if err := f.space.Detach("d", row.user, row.level, row.prop.Name()); err != nil {
				t.Fatal(err)
			}
			memoizable("detached", true)
		})
	}
}
