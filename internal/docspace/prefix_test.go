package docspace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"placeless/internal/event"
	"placeless/internal/property"
	"placeless/internal/sig"
)

// fakePrefixMemo is a minimal PrefixIntermediates store for exercising
// the staged read path without a cache, with optional fault injection
// for the degraded-read tests.
type fakePrefixMemo struct {
	store             map[string][]byte
	keys              []string // install order, one per computed cut
	computes          int
	universalComputes int // computes of the universal/personal boundary cut
	calls             int
	failOn            int // fail the nth PrefixIntermediate call (1-based)
}

func newFakePrefixMemo() *fakePrefixMemo {
	return &fakePrefixMemo{store: make(map[string][]byte)}
}

func memoKey(src, fp sig.Signature) string {
	return string(src[:]) + string(fp[:])
}

var errStoreSick = errors.New("intermediate store unavailable")

func (m *fakePrefixMemo) LongestPrefix(doc string, src sig.Signature, fps []sig.Signature) ([]byte, int, bool) {
	for i := len(fps) - 1; i >= 0; i-- {
		if d, ok := m.store[memoKey(src, fps[i])]; ok {
			return append([]byte{}, d...), i, true
		}
	}
	return nil, -1, false
}

func (m *fakePrefixMemo) PrefixIntermediate(doc, user string, src sig.Signature, cut Cut, compute func() ([]byte, error)) ([]byte, bool, error) {
	m.calls++
	if m.failOn > 0 && m.calls == m.failOn {
		return nil, false, errStoreSick
	}
	k := memoKey(src, cut.FP)
	if d, ok := m.store[k]; ok {
		return append([]byte{}, d...), true, nil
	}
	d, err := compute()
	if err != nil {
		return nil, false, err
	}
	m.computes++
	if cut.Universal {
		m.universalComputes++
	}
	m.store[k] = append([]byte{}, d...)
	m.keys = append(m.keys, k)
	return d, false, nil
}

// decodeChainFrames inverts appendChainFrame: an exact decoder existing
// at all is what proves the encoding injective.
func decodeChainFrames(enc []byte) ([][3]string, error) {
	var out [][3]string
	for len(enc) > 0 {
		var f [3]string
		for i := 0; i < 3; i++ {
			n, sz := binary.Uvarint(enc)
			if sz <= 0 || uint64(len(enc)-sz) < n {
				return nil, fmt.Errorf("corrupt frame at %d fields decoded", len(out)*3+i)
			}
			f[i] = string(enc[sz : sz+int(n)])
			enc = enc[sz+int(n):]
		}
		out = append(out, f)
	}
	return out, nil
}

func encodeChainFrames(frames [][3]string) []byte {
	var enc []byte
	for _, f := range frames {
		enc = appendChainFrame(enc, f[0], f[1], f[2])
	}
	return enc
}

// TestChainFrameCollisionRegression pins the framing bug: under the old
// "%s\x00%s\x00%s\n" separator framing, a two-property chain encoded
// byte-identically to a single property whose memo key embedded the
// separators, so the two chains shared a fingerprint — and, since equal
// fingerprints are trusted to imply equal bytes, the memo store would
// have served one chain's output for the other.
func TestChainFrameCollisionRegression(t *testing.T) {
	oldFrame := func(name, class, key string) string {
		return fmt.Sprintf("%s\x00%s\x00%s\n", name, class, key)
	}
	// Chain A: two properties. Chain B: one property whose memo key
	// embeds A's separators and B's whole second frame.
	hostileKey := "n/v1/k\nm\x00active\x00m/v1/q"
	oldA := oldFrame("n", "active", "n/v1/k") + oldFrame("m", "active", "m/v1/q")
	oldB := oldFrame("n", "active", hostileKey)
	if oldA != oldB {
		t.Fatal("regression fixture stale: the old framing no longer collides these chains")
	}

	newA := appendChainFrame(appendChainFrame(nil, "n", "active", "n/v1/k"), "m", "active", "m/v1/q")
	newB := appendChainFrame(nil, "n", "active", hostileKey)
	if bytes.Equal(newA, newB) {
		t.Fatal("length-prefixed framing still collides the hostile chains")
	}
}

// TestHostileChainsGetDistinctFingerprints is the same regression
// end-to-end: two documents whose chains collided under the old framing
// must expose distinct universal fingerprints.
func TestHostileChainsGetDistinctFingerprints(t *testing.T) {
	ident := func(b []byte) []byte { return b }
	f := newFixture(t)
	f.addDoc(t, "a", "eyal", "/a", []byte("content"))
	f.addDoc(t, "b", "eyal", "/b", []byte("content"))

	// Document a: chain [n (memo key n/v1/k), m (memo key m/v1/q)].
	for _, p := range []*property.Transformer{
		{Base: property.Base{PropName: "n"}, ReadTransform: ident, Version: 1, MemoID: "k"},
		{Base: property.Base{PropName: "m"}, ReadTransform: ident, Version: 1, MemoID: "q"},
	} {
		if err := f.space.Attach("a", "", Universal, p); err != nil {
			t.Fatal(err)
		}
	}
	// Document b: one property whose memo key embeds a's frames under
	// the old separator framing.
	hostile := &property.Transformer{
		Base: property.Base{PropName: "n"}, ReadTransform: ident,
		Version: 1, MemoID: "k\nm\x00active\x00m/v1/q",
	}
	if err := f.space.Attach("b", "", Universal, hostile); err != nil {
		t.Fatal(err)
	}

	fpA := f.fingerprint(t, "a")
	fpB := f.fingerprint(t, "b")
	if fpA == fpB {
		t.Fatal("hostile memo key collided two distinct chains' fingerprints")
	}
}

// FuzzChainFrameRoundTrip: every frame sequence must decode back to
// itself exactly — the constructive proof that no two distinct chains
// share an encoding, whatever bytes appear in names or memo keys.
func FuzzChainFrameRoundTrip(f *testing.F) {
	f.Add("n", "active", "n/v1/k", "m", "active", "m/v1/q")
	// The historical collision: frame two's content hidden inside frame
	// one's key using the old separators.
	f.Add("n", "active", "n/v1/k\nm\x00active\x00m/v1/q", "", "", "")
	f.Add("", "", "", "", "", "")
	f.Add("a\x00b", "c\nd", "\xff\xfe", "e", "", "f")
	f.Fuzz(func(t *testing.T, n1, c1, k1, n2, c2, k2 string) {
		frames := [][3]string{{n1, c1, k1}, {n2, c2, k2}}
		for _, seq := range [][][3]string{frames[:1], frames} {
			enc := encodeChainFrames(seq)
			got, err := decodeChainFrames(enc)
			if err != nil {
				t.Fatalf("decode(%q): %v", enc, err)
			}
			if len(got) != len(seq) {
				t.Fatalf("decode returned %d frames, want %d", len(got), len(seq))
			}
			for i := range seq {
				if got[i] != seq[i] {
					t.Fatalf("frame %d round-tripped as %q, want %q", i, got[i], seq[i])
				}
			}
		}
	})
}

// TestChainFrameQuickRoundTrip drives the same round-trip property from
// testing/quick's generator, covering arbitrary-length sequences.
func TestChainFrameQuickRoundTrip(t *testing.T) {
	prop := func(frames [][3]string) bool {
		got, err := decodeChainFrames(encodeChainFrames(frames))
		if err != nil || len(got) != len(frames) {
			return false
		}
		for i := range frames {
			if got[i] != frames[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCreateDocumentRejectsNULIds: NUL bytes in document ids would let
// crafted ids collide with the cache's composite keys (doc NUL user and
// the intermediate namespace prefix), so registration refuses them.
func TestCreateDocumentRejectsNULIds(t *testing.T) {
	f := newFixture(t)
	f.src.Store("/x", []byte("content"))
	bits := &property.RepoBitProvider{Repo: f.src, Path: "/x"}
	if _, err := f.space.CreateDocument("bad\x00id", "eyal", bits); !errors.Is(err, ErrBadID) {
		t.Fatalf("CreateDocument with NUL id: err = %v, want ErrBadID", err)
	}
	if _, err := f.space.CreateDocument("good-id", "eyal", bits); err != nil {
		t.Fatalf("CreateDocument without NUL: %v", err)
	}
}

// everyCutSubset reads f's document "d" as each user through the staged
// path once per subset of its cuts — that subset pre-seeded into a
// fresh store, so the read resumes from the deepest seeded prefix,
// is served the seeded segments and computes the rest — and hands
// every read to check. minCuts guards the fixture: fewer distinct cuts
// across the users and the walk would exercise too little.
func everyCutSubset(t *testing.T, f *fixture, users []string, minCuts int, check func(mask int, user string, data []byte, res property.ReadResult, trace StageTrace)) {
	t.Helper()
	// One warm pass to learn every cut's key and bytes.
	warm := newFakePrefixMemo()
	for _, u := range users {
		_, _, trace, err := f.space.ReadDocumentStaged("d", u, warm)
		if err != nil {
			t.Fatal(err)
		}
		if trace.Cuts == 0 {
			t.Fatalf("user %s: multi-cut staging not attempted: %+v", u, trace)
		}
	}
	if len(warm.keys) < minCuts {
		t.Fatalf("expected at least %d distinct cuts, got %d", minCuts, len(warm.keys))
	}
	for mask := 0; mask < 1<<len(warm.keys); mask++ {
		m := newFakePrefixMemo()
		for i, k := range warm.keys {
			if mask&(1<<i) != 0 {
				m.store[k] = append([]byte{}, warm.store[k]...)
			}
		}
		for _, u := range users {
			staged, res, trace, err := f.space.ReadDocumentStaged("d", u, m)
			if err != nil {
				t.Fatalf("mask %b user %s: %v", mask, u, err)
			}
			check(mask, u, staged.Bytes(), res, trace)
		}
	}
}

// TestPrefixStagedMatchesPlainEverySubset is the pipeline's equivalence
// guard: whatever subset of cuts is already cached, the staged read
// must produce bytes identical to the unstaged path — resuming from the
// deepest cached prefix, serving cached segments, computing the rest.
func TestPrefixStagedMatchesPlainEverySubset(t *testing.T) {
	f := stageFixture(t)
	users := []string{"eyal", "paul"}
	plain := make(map[string][]byte)
	plainRes := make(map[string]property.ReadResult)
	for _, u := range users {
		d, res, err := f.space.ReadDocument("d", u)
		if err != nil {
			t.Fatal(err)
		}
		plain[u], plainRes[u] = d, res
	}
	everyCutSubset(t, f, users, 4, func(mask int, u string, staged []byte, res property.ReadResult, _ StageTrace) {
		if !bytes.Equal(staged, plain[u]) {
			t.Fatalf("mask %b user %s: staged read diverged:\nplain:  %q\nstaged: %q",
				mask, u, plain[u], staged)
		}
		// Served segments skip their transforms, never their votes,
		// verifiers or replacement cost.
		if want := plainRes[u]; res.Cacheability != want.Cacheability || res.Cost != want.Cost || len(res.Verifiers) != len(want.Verifiers) {
			t.Fatalf("mask %b user %s: ReadResult diverged:\nplain:  %+v\nstaged: %+v", mask, u, want, res)
		}
	})
}

// TestStageTraceKeyMatchesContentKey: the key a staged read reports for
// its own bytes is the key ContentKey answers when nothing changed in
// between — whatever the read was served from the store, and with
// chains that are not memoizable, that hold event-only properties, or
// behind a cache's notifiers. The disk tier records the first and
// probes with the second; they must agree on every component or no
// demoted entry would ever promote.
func TestStageTraceKeyMatchesContentKey(t *testing.T) {
	opaque := func(name string) property.Active {
		// Byte-touching with no memo contract: poisons every later cut.
		return &property.Transformer{Base: property.Base{PropName: name}, ReadTransform: bytes.ToUpper, Version: 1}
	}
	type attachment struct {
		user  string // "" for universal
		props []property.Active
	}
	for _, tc := range []struct {
		name      string
		extra     []attachment
		notifiers bool // a cache's notifier pair registered for both users
	}{
		{name: "memoizable chains"},
		{name: "non-memoizable personal tail", extra: []attachment{{"eyal", []property.Active{opaque("opaque")}}}},
		{name: "non-memoizable universal tail", extra: []attachment{{"", []property.Active{opaque("opaque")}}}},
		{name: "event-only", extra: []attachment{
			{"", []property.Active{property.NewAuditTrail()}},
			{"paul", []property.Active{property.NewAuditTrail()}},
		}},
		{name: "cache machinery", notifiers: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := stageFixture(t)
			if tc.notifiers {
				pair := NewNotifierPair(f.space, "notifier:test", func(event.Event) {}, func(event.Event) {})
				defer pair.Close()
				for _, u := range []string{"eyal", "paul"} {
					if err := pair.Ensure("d", u); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, a := range tc.extra {
				level := Universal
				if a.user != "" {
					level = Personal
				}
				for _, p := range a.props {
					if err := f.space.Attach("d", a.user, level, p); err != nil {
						t.Fatal(err)
					}
				}
			}
			everyCutSubset(t, f, []string{"eyal", "paul"}, 2, func(mask int, u string, _ []byte, _ property.ReadResult, trace StageTrace) {
				want, err := f.space.ContentKey("d", u)
				if err != nil {
					t.Fatal(err)
				}
				if trace.Key != want {
					t.Fatalf("mask %b user %s: trace key diverged from ContentKey:\ntrace:      %+v\nContentKey: %+v", mask, u, trace.Key, want)
				}
			})
		})
	}
}

// TestPrefixSharesPersonalPrefix: two users whose personal chains share
// a leading translate property share its cut — sharing past the
// universal/personal boundary.
func TestPrefixSharesPersonalPrefix(t *testing.T) {
	f := newFixture(t)
	f.addDoc(t, "d", "eyal", "/d", []byte("the quick brown fox\nand the lazy dog\n"))
	if err := f.space.Attach("d", "", Universal, property.NewSpellCorrector(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.space.AddReference("d", "paul"); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"eyal", "paul"} {
		// Shared personal prefix: same dictionary, same memo key.
		if err := f.space.Attach("d", u, Personal, property.NewTranslator(time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if err := f.space.Attach("d", u, Personal, property.NewWatermarker(u, 0)); err != nil {
			t.Fatal(err)
		}
	}

	m := newFakePrefixMemo()
	if _, _, trace, err := f.space.ReadDocumentStaged("d", "eyal", m); err != nil || trace.DeepestHit != -1 {
		t.Fatalf("cold read: trace=%+v err=%v", trace, err)
	}
	afterEyal := m.computes

	_, _, trace, err := f.space.ReadDocumentStaged("d", "paul", m)
	if err != nil {
		t.Fatal(err)
	}
	// Paul's probe must resume past the universal boundary (cut 0),
	// inside the personal chain: the translate cut (cut 1) is shared,
	// only the watermark segment computes.
	if trace.DeepestHit < 1 {
		t.Fatalf("DeepestHit = %d, want >= 1 (resume inside the personal chain): %+v", trace.DeepestHit, trace)
	}
	if got := m.computes - afterEyal; got != 1 {
		t.Fatalf("paul computed %d segments, want 1 (watermark only)", got)
	}
	if !trace.Hit {
		t.Fatal("resuming past the boundary must report the universal stage memoized")
	}
}

// TestStoreErrorFallsBackToDirectExecution: a sick intermediate store
// must degrade the read to direct execution — correct bytes, MemoErr
// set — never fail it, at whichever cut the failure strikes.
func TestStoreErrorFallsBackToDirectExecution(t *testing.T) {
	f := stageFixture(t)
	plain, _, err := f.space.ReadDocument("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}

	// Probe how many cuts eyal's read offers.
	probe := newFakePrefixMemo()
	if _, _, tr, err := f.space.ReadDocumentStaged("d", "eyal", probe); err != nil || tr.Cuts == 0 {
		t.Fatalf("probe: trace=%+v err=%v", tr, err)
	}

	for fail := 1; fail <= probe.calls; fail++ {
		m := newFakePrefixMemo()
		m.failOn = fail
		staged, _, trace, err := f.space.ReadDocumentStaged("d", "eyal", m)
		if err != nil {
			t.Fatalf("failOn=%d: read failed instead of degrading: %v", fail, err)
		}
		if !trace.MemoErr {
			t.Fatalf("failOn=%d: MemoErr not set: %+v", fail, trace)
		}
		if trace.Cuts == 0 {
			t.Fatalf("failOn=%d: cuts lost on degraded read", fail)
		}
		if trace.Hit {
			t.Fatalf("failOn=%d: degraded read claimed a memo hit", fail)
		}
		if !bytes.Equal(staged.Bytes(), plain) {
			t.Fatalf("failOn=%d: degraded read diverged:\nplain:  %q\nstaged: %q", fail, plain, staged.Bytes())
		}
	}
}

// TestBoundaryCutMatchesUniversalFingerprint: the boundary cut's prefix
// fingerprint must be bit-identical to the cached universal-chain
// fingerprint — what keeps the memo store and the durable tier's
// ContentKey on the same keys.
func TestBoundaryCutMatchesUniversalFingerprint(t *testing.T) {
	f := stageFixture(t)
	m := newFakePrefixMemo()
	_, _, trace, err := f.space.ReadDocumentStaged("d", "eyal", m)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Key.UniversalFP != f.fingerprint(t, "d") {
		t.Fatal("boundary prefix fingerprint diverged from UniversalFingerprint")
	}
}
