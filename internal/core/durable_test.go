package core

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/sig"
	"placeless/internal/simnet"
	"placeless/internal/store"
	"placeless/internal/stream"
)

// durableWorld is a world with a durable disk tier attached, plus the
// machinery to crash the cache and boot a successor over the same
// store directory — the document space and repositories survive the
// "crash" (they model the Placeless middleware, not the cache
// process).
type durableWorld struct {
	*world
	t    *testing.T
	dir  string
	st   *store.Store
	opts Options
	rec  store.Recovery
}

func newDurableWorld(t *testing.T, opts Options) *durableWorld {
	t.Helper()
	dir := t.TempDir()
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	w := newWorld(t, opts)
	d := &durableWorld{world: w, t: t, dir: dir, st: st, opts: opts, rec: rec}
	t.Cleanup(func() { _ = d.st.Close() })
	return d
}

// crashAndRestart closes the cache (which buffers nothing, so this is
// what process death does to it), closes the store file handles, then reopens the directory —
// running the full scan-and-replay recovery path — and boots a new
// cache over the recovered store.
func (d *durableWorld) crashAndRestart() {
	d.t.Helper()
	d.cache.Close()
	if err := d.st.Close(); err != nil {
		d.t.Fatal(err)
	}
	st, rec, err := store.Open(d.dir, store.Options{})
	if err != nil {
		d.t.Fatal(err)
	}
	d.st, d.rec = st, rec
	d.opts.Store = st
	d.cache = New(d.space, d.opts)
}

// TestDurableWarmRestart is the tentpole's core promise: entries
// demoted before a crash are served after restart without executing a
// single transform, byte-identical to a fresh computation.
func TestDurableWarmRestart(t *testing.T) {
	users := memoUsers(4)
	d := newDurableWorld(t, Options{})
	setupMemoDoc(t, d.world, users)

	before := make(map[string][]byte)
	for _, u := range users {
		before[u] = d.read(t, "d", u)
	}
	if st := d.cache.Stats(); st.StoreDemotions != int64(len(users)) {
		t.Fatalf("StoreDemotions = %d, want %d", st.StoreDemotions, len(users))
	}

	d.crashAndRestart()
	if d.rec.Entries != len(users) {
		t.Fatalf("recovered %d entries, want %d", d.rec.Entries, len(users))
	}

	for _, u := range users {
		data, info, err := readBytes(d.cache, "d", u)
		if err != nil {
			t.Fatal(err)
		}
		if info.Verdict != obs.VerdictDisk {
			t.Fatalf("user %s: read after restart not disk-promoted (info %+v)", u, info)
		}
		if !bytes.Equal(data, before[u]) {
			t.Fatalf("user %s: promoted bytes differ:\npre-crash:  %q\npost-crash: %q", u, before[u], data)
		}
	}
	st := d.cache.Stats()
	if st.StorePromotions != int64(len(users)) {
		t.Fatalf("StorePromotions = %d, want %d", st.StorePromotions, len(users))
	}
	if st.UniversalStageRuns != 0 {
		t.Fatalf("UniversalStageRuns = %d after restart, want 0 (promotion must skip transforms)", st.UniversalStageRuns)
	}

	// Promoted entries behave as normal entries afterwards: the next
	// read is a plain hit (store-recheck verifier passing).
	for _, u := range users {
		_, info, err := d.cache.ReadWithInfo("d", u)
		if err != nil {
			t.Fatal(err)
		}
		if info.Verdict != obs.VerdictHit {
			t.Fatalf("user %s: second post-restart read not a hit", u)
		}
	}
}

// TestDurableRefusesEpochInvalidatedEntry: an entry demoted at
// generation G and invalidated at G+1 (epoch persisted) must not be
// servable after a crash, even though its bytes are still on disk.
func TestDurableRefusesEpochInvalidatedEntry(t *testing.T) {
	d := newDurableWorld(t, Options{})
	setupMemoDoc(t, d.world, []string{"eyal"})
	d.read(t, "d", "eyal")
	d.cache.InvalidateDoc("d")

	d.crashAndRestart()
	if d.rec.Entries != 0 {
		t.Fatalf("recovered %d entries, want 0 (epoch supersedes them)", d.rec.Entries)
	}
	if d.rec.DroppedStale == 0 {
		t.Fatal("recovery reported no stale-dropped entries")
	}

	data, info, err := readBytes(d.cache, "d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if info.Verdict == obs.VerdictDisk {
		t.Fatal("epoch-invalidated entry was promoted from disk")
	}
	if !bytes.Contains(data, []byte("eyal")) {
		t.Fatalf("recomputed content lost personal suffix: %q", data)
	}
	if st := d.cache.Stats(); st.StorePromotions != 0 {
		t.Fatalf("StorePromotions = %d, want 0", st.StorePromotions)
	}
}

// TestDurableRefusesContentChangedWhileDown: the source file is
// rewritten out-of-band while the process is down — no notifier, no
// epoch. The content-key probe at promotion time must catch the moved
// source signature and recompute.
func TestDurableRefusesContentChangedWhileDown(t *testing.T) {
	d := newDurableWorld(t, Options{})
	setupMemoDoc(t, d.world, []string{"eyal"})
	stale := d.read(t, "d", "eyal")

	d.cache.Close()
	d.src.Store("/d", []byte("rewritten teh content while down\n"))
	if err := d.st.Close(); err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open(d.dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.st = st
	d.opts.Store = st
	d.cache = New(d.space, d.opts)

	data, info, err := readBytes(d.cache, "d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if info.Verdict == obs.VerdictDisk {
		t.Fatal("stale disk entry promoted after out-of-band rewrite")
	}
	if bytes.Equal(data, stale) {
		t.Fatalf("read served pre-rewrite bytes: %q", data)
	}
	if !bytes.Contains(data, []byte("rewritten")) {
		t.Fatalf("read missed the rewrite: %q", data)
	}
	cs := d.cache.Stats()
	if cs.StorePromotionRejects == 0 {
		t.Fatal("expected a promotion reject for the moved source signature")
	}
	if cs.StorePromotions != 0 {
		t.Fatalf("StorePromotions = %d, want 0", cs.StorePromotions)
	}
}

// TestDurableRefusesChainChangedWhileDown: an active property attached
// while the process was down moves the chain fingerprint; the durable
// entry keyed under the old fingerprint must not be served.
func TestDurableRefusesChainChangedWhileDown(t *testing.T) {
	d := newDurableWorld(t, Options{})
	setupMemoDoc(t, d.world, []string{"eyal"})
	stale := d.read(t, "d", "eyal")

	d.cache.Close()
	if err := d.space.Attach("d", "", docspace.Universal, property.NewUppercaser(0)); err != nil {
		t.Fatal(err)
	}
	d.crashRestartStoreOnly()

	data, info, err := readBytes(d.cache, "d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if info.Verdict == obs.VerdictDisk {
		t.Fatal("disk entry promoted despite a changed universal chain")
	}
	if bytes.Equal(data, stale) {
		t.Fatal("read served pre-change bytes")
	}
	if st := d.cache.Stats(); st.StorePromotionRejects == 0 {
		t.Fatal("expected a promotion reject for the moved fingerprint")
	}
}

// crashRestartStoreOnly reopens the store and boots a new cache after
// the caller already closed the old one (for tests that mutate the
// space "while down").
func (d *durableWorld) crashRestartStoreOnly() {
	d.t.Helper()
	if err := d.st.Close(); err != nil {
		d.t.Fatal(err)
	}
	st, rec, err := store.Open(d.dir, store.Options{})
	if err != nil {
		d.t.Fatal(err)
	}
	d.st, d.rec = st, rec
	d.opts.Store = st
	d.cache = New(d.space, d.opts)
}

// TestStoreRecheckVerifierCatchesLaterChange: a promoted entry carries
// the store-recheck verifier; an out-of-band source rewrite after
// promotion must be caught on the next hit, like any cause-4 change.
func TestStoreRecheckVerifierCatchesLaterChange(t *testing.T) {
	d := newDurableWorld(t, Options{})
	setupMemoDoc(t, d.world, []string{"eyal"})
	d.read(t, "d", "eyal")

	d.crashAndRestart()
	_, info, err := d.cache.ReadWithInfo("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if info.Verdict != obs.VerdictDisk {
		t.Fatal("setup: expected a disk promotion")
	}

	d.src.Store("/d", []byte("changed after promotion\n"))
	data, info, err := readBytes(d.cache, "d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if info.Verdict == obs.VerdictHit {
		t.Fatal("store-recheck verifier let a stale promoted entry hit")
	}
	if !bytes.Contains(data, []byte("changed after promotion")) {
		t.Fatalf("read served stale bytes: %q", data)
	}
	if st := d.cache.Stats(); st.VerifierRejects == 0 {
		t.Fatal("expected a verifier reject")
	}
}

// TestDurableIntermediatePromotion: after a restart, a user with no
// durable entry of their own still skips the universal stage when the
// (source, fingerprint) intermediate survived on disk.
func TestDurableIntermediatePromotion(t *testing.T) {
	users := memoUsers(2)
	d := newDurableWorld(t, Options{})
	setupMemoDoc(t, d.world, users)
	// Only user00 reads before the crash: one entry, one intermediate
	// demoted.
	d.read(t, "d", users[0])

	d.crashAndRestart()

	// user01 never had an entry (memory or disk); the staged miss must
	// promote the universal stage from the durable intermediate and run
	// only the personal suffix.
	data, info, err := readBytes(d.cache, "d", users[1])
	if err != nil {
		t.Fatal(err)
	}
	if info.Verdict == obs.VerdictDisk {
		t.Fatal("user01 has no durable entry; promotion should be intermediate-level only")
	}
	if info.Verdict != obs.VerdictMemo {
		t.Fatal("universal stage not served from the durable intermediate")
	}
	if !bytes.Contains(data, []byte(users[1])) {
		t.Fatalf("personal suffix missing: %q", data)
	}
	st := d.cache.Stats()
	// One durable promotion per universal cut the walk crossed (after
	// spell-correct and at the boundary after line-number); user01's
	// watermark segment is the only thing that executes.
	if st.StoreIntermediatePromotions != 2 {
		t.Fatalf("StoreIntermediatePromotions = %d, want 2", st.StoreIntermediatePromotions)
	}
	if st.UniversalStageRuns != 0 {
		t.Fatalf("UniversalStageRuns = %d, want 0", st.UniversalStageRuns)
	}
}

// TestDurableDemotionSkipsUncacheable: a read path voting Uncacheable
// must never reach the disk: durability is a stronger claim than
// cacheability, not an exception to it.
func TestDurableDemotionSkipsUncacheable(t *testing.T) {
	d := newDurableWorld(t, Options{})
	d.space.CreateDocument("cam", "u", &property.RepoBitProvider{
		Repo: d.feed, Path: "/cam1", Vote: property.Uncacheable,
	})
	d.read(t, "cam", "u")
	if ss := d.st.Stats(); ss.Entries != 0 {
		t.Fatalf("uncacheable result reached the disk tier: %+v", ss)
	}
	if st := d.cache.Stats(); st.StoreDemotions != 0 {
		t.Fatalf("StoreDemotions = %d, want 0", st.StoreDemotions)
	}
}

// midReadRewriter is a personal property that touches no bytes and, the
// first time a read wraps it, rewrites the document's source straight
// in the repository — no Placeless write, so no event and no notifier.
// The staged read has fetched the source by then and has not yet
// returned, so the rewrite lands between the fetch and the demotion.
type midReadRewriter struct {
	property.Base
	rewrite func()
	fired   bool
}

func (m *midReadRewriter) WrapInput(*property.ReadContext) stream.Transform {
	if !m.fired {
		m.fired = true
		m.rewrite()
	}
	return nil
}

// TestDemoteRecordsTheKeyTheReadComputed: a result is demoted under the
// source signature its bytes were computed from, whatever the source
// has become since. The pair on disk is consistent, so the successor's
// live probe sees the moved source, rejects it and recomputes — it can
// never bind the old bytes to the new source.
func TestDemoteRecordsTheKeyTheReadComputed(t *testing.T) {
	d := newDurableWorld(t, Options{})
	setupMemoDoc(t, d.world, []string{"eyal"})
	hook := &midReadRewriter{
		Base:    property.Base{PropName: "mid-read-rewriter"},
		rewrite: func() { d.src.Store("/d", []byte("rewritten teh source mid-read\n")) },
	}
	if err := d.space.Attach("d", "eyal", docspace.Personal, hook); err != nil {
		t.Fatal(err)
	}

	old := d.read(t, "d", "eyal")
	if bytes.Contains(old, []byte("rewritten")) {
		t.Fatalf("setup: the read was computed from the rewritten source: %q", old)
	}
	if st := d.cache.Stats(); st.StoreDemotions != 1 {
		t.Fatalf("StoreDemotions = %d, want 1: the read's own key and bytes are a consistent pair", st.StoreDemotions)
	}

	d.crashAndRestart()
	data, info, err := readBytes(d.cache, "d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if info.Verdict == obs.VerdictDisk || bytes.Equal(data, old) {
		t.Fatalf("old bytes served under the new source (promoted=%v): %q", info.Verdict == obs.VerdictDisk, data)
	}
	if !bytes.Contains(data, []byte("rewritten")) {
		t.Fatalf("read missed the rewrite: %q", data)
	}
	if st := d.cache.Stats(); st.StorePromotionRejects != 1 || st.StorePromotions != 0 {
		t.Fatalf("rejects/promotions = %d/%d, want 1/0", st.StorePromotionRejects, st.StorePromotions)
	}
}

// handRecord encodes one segment record by hand: magic, length,
// signature, CRC-32 (IEEE) of signature and payload, payload.
func handRecord(magic string, s sig.Signature, payload []byte) []byte {
	rec := append([]byte(magic), binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))...)
	rec = append(rec, s[:]...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(append(s[:], payload...)))
	return append(rec, payload...)
}

// writeStoreByHand lays dir out as a store holding one blob record of
// payload under signature s, with its metadata in a JSON-lines
// meta.log beside it, as stores were once laid out: user's entry and
// the universal intermediate under ck, both naming s, and an epoch for
// ck's document at gen. It returns the segment's length.
func writeStoreByHand(t *testing.T, dir string, s sig.Signature, payload []byte, user string, ck docspace.ContentKey, gen uint64) int {
	t.Helper()
	seg := handRecord("PLSG", s, payload)
	var lines []byte
	for _, m := range []map[string]any{
		{"t": "entry", "e": jsonEraEntry(user, s, ck, gen)},
		{"t": "inter", "i": map[string]any{"src": ck.SourceSig.String(), "fp": ck.UniversalFP.String(), "sig": s.String(), "cost": 0}},
		{"t": "epoch", "doc": "d", "gen": gen},
	} {
		lines = append(append(lines, jsonEra(t, m)...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.plseg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.log"), lines, 0o644); err != nil {
		t.Fatal(err)
	}
	return len(seg)
}

// jsonEra is m as a store wrote a metadata record while they were
// JSON; the caller renders signatures in hex, as those stores did.
func jsonEra(t *testing.T, m map[string]any) []byte {
	t.Helper()
	js, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// jsonEraEntry is the JSON object of user's entry of document "d"
// under ck, its view signed s, as such a store wrote it.
func jsonEraEntry(user string, s sig.Signature, ck docspace.ContentKey, gen uint64) map[string]any {
	return map[string]any{
		"doc": "d", "user": user, "sig": s.String(),
		"src": ck.SourceSig.String(), "ufp": ck.UniversalFP.String(), "pfp": ck.PersonalFP.String(),
		"gen": gen, "cost": int64(time.Millisecond),
	}
}

// checkUpgradeRecomputes boots a cache over st and fails unless d's
// generation is 0 — no epoch came back — and the first read is a full
// recompute with the miss verdict.
func checkUpgradeRecomputes(t *testing.T, w *world, st *store.Store) {
	t.Helper()
	o := obs.NewObserver()
	c := New(w.space, Options{Name: "upgraded", Store: st, Observer: o})
	defer c.Close()
	if g := c.tab.Gen("d"); g != 0 {
		t.Fatalf("generation of d = %d, want 0: no epoch is read from an old layout", g)
	}
	data, info, err := readBytes(c, "d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if want := w.read(t, "d", "eyal"); !bytes.Equal(data, want) {
		t.Fatalf("first read after the upgrade = %q, want the recomputed %q", data, want)
	}
	s := c.Stats()
	if info.Verdict != obs.VerdictMiss || s.StorePromotions != 0 || s.StoreIntermediatePromotions != 0 || s.UniversalStageRuns != 1 {
		t.Fatalf("the first read was not a full recompute: info %+v, stats %+v", info, s)
	}
	if tr := o.Ring().Snapshot(1); len(tr) != 1 || tr[0].Verdict != obs.VerdictMiss {
		t.Fatalf("trace = %+v, want one read with the miss verdict", tr)
	}
}

// TestDurableUpgradeFromMD5Store boots a cache over a store written
// while content signatures were MD5 and metadata went to meta.log. The
// store holds the user's entry and the universal intermediate under
// the document's current content key, so only the layout stands
// between the old bytes and a promotion — as the control shows, where
// the same facts signed with sig.Of in today's layout are served. The
// MD5 store must open without error and index nothing, its epoch
// included, and the first read must recompute.
func TestDurableUpgradeFromMD5Store(t *testing.T) {
	w := newWorld(t, Options{})
	setupMemoDoc(t, w, []string{"eyal"})
	ck, err := w.space.ContentKey("d", "eyal")
	if err != nil || !ck.Memoizable {
		t.Fatalf("setup: content key %+v, %v", ck, err)
	}
	stale := []byte("bytes an MD5-era store held for eyal\n")

	control := t.TempDir()
	cst, _, err := store.Open(control, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := cst.PutBlob(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := cst.PutEntry(store.EntryMeta{Doc: "d", User: "eyal", Sig: s, SourceSig: ck.SourceSig, UniversalFP: ck.UniversalFP, PersonalFP: ck.PersonalFP, Gen: 7}); err != nil {
		t.Fatal(err)
	}
	if err := cst.PutIntermediate(store.IntermediateMeta{SourceSig: ck.SourceSig, Fingerprint: ck.UniversalFP, Sig: s}); err != nil {
		t.Fatal(err)
	}
	if err := cst.AppendEpoch("d", 7); err != nil {
		t.Fatal(err)
	}
	if err := cst.Close(); err != nil {
		t.Fatal(err)
	}
	if cst, _, err = store.Open(control, store.Options{}); err != nil {
		t.Fatal(err)
	}
	cc := New(w.space, Options{Name: "control", Store: cst})
	if g := cc.tab.Gen("d"); g != 7 {
		t.Fatalf("control: generation of d = %d, want the persisted epoch 7", g)
	}
	if data, info, err := readBytes(cc, "d", "eyal"); err != nil || info.Verdict != obs.VerdictDisk || !bytes.Equal(data, stale) {
		t.Fatalf("control: a store signed with sig.Of was not promoted: %q, %+v, %v", data, info, err)
	}
	cc.Close()
	cst.Close()

	dir := t.TempDir()
	segLen := writeStoreByHand(t, dir, sig.Signature(md5.Sum(stale)), stale, "eyal", ck, 7)
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("an MD5-era store failed to open: %v", err)
	}
	defer st.Close()
	if (rec != store.Recovery{LostBytes: int64(segLen)}) {
		t.Fatalf("recovery = %+v, want nothing but the whole record lost", rec)
	}
	checkUpgradeRecomputes(t, w, st)
}

// TestDurableUpgradeFromMetaLogStore boots a cache over a store written
// while metadata went to meta.log, signatures already sig.Of: the blob
// is indexed, the entry, intermediate and epoch are not, and the first
// read recomputes rather than promote the old bytes.
func TestDurableUpgradeFromMetaLogStore(t *testing.T) {
	w := newWorld(t, Options{})
	setupMemoDoc(t, w, []string{"eyal"})
	ck, err := w.space.ContentKey("d", "eyal")
	if err != nil || !ck.Memoizable {
		t.Fatalf("setup: content key %+v, %v", ck, err)
	}
	stale := []byte("bytes a meta.log-era store held for eyal\n")
	dir := t.TempDir()
	writeStoreByHand(t, dir, sig.Of(stale), stale, "eyal", ck, 7)
	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("a meta.log-era store failed to open: %v", err)
	}
	defer st.Close()
	if (rec != store.Recovery{Blobs: 1}) {
		t.Fatalf("recovery = %+v, want the blob and nothing else", rec)
	}
	checkUpgradeRecomputes(t, w, st)
}

// countingRepo counts the fetches a repository serves.
type countingRepo struct {
	repo.Repository
	fetches atomic.Int64
}

func (r *countingRepo) Fetch(path string) (*repo.FetchResult, error) {
	r.fetches.Add(1)
	return r.Repository.Fetch(path)
}

// TestPromoteFetchesTheSourceOncePerVersion: after a restart, K users'
// promotes of one document fetch its source once — the first probe
// stamps the signature and the others poll the mtime — and so do the
// store-recheck verifiers of the K hits after them. An out-of-band
// rewrite costs exactly one more fetch, and a rewrite to new bytes is
// served.
func TestPromoteFetchesTheSourceOncePerVersion(t *testing.T) {
	const K = 6
	users := memoUsers(K)
	clk := clock.NewVirtual(epoch)
	mem := repo.NewMem("nfs", clk, simnet.Local(1))
	mem.Store("/d", memoContent)
	src := &countingRepo{Repository: mem}
	dir := t.TempDir()
	var st *store.Store
	var c *Cache
	// boot starts the process again: a document space rebuilt over the
	// same repository, the store reopened, a new cache.
	boot := func() {
		t.Helper()
		if c != nil {
			c.Close()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		space := docspace.New(clk, nil)
		if _, err := space.CreateDocument("d", users[0], &property.RepoBitProvider{Repo: src, Path: "/d"}); err != nil {
			t.Fatal(err)
		}
		for _, p := range []property.Active{property.NewSpellCorrector(time.Millisecond), property.NewLineNumberer(time.Millisecond)} {
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
		var err error
		if st, _, err = store.Open(dir, store.Options{}); err != nil {
			t.Fatal(err)
		}
		c = New(space, Options{Store: st})
	}
	// readAll reads every user's view and returns the fetches it cost.
	readAll := func(want func(EntryInfo) bool, what string) int64 {
		t.Helper()
		before := src.fetches.Load()
		for _, u := range users {
			_, info, err := c.ReadWithInfo("d", u)
			if err != nil {
				t.Fatal(err)
			}
			if !want(info) {
				t.Fatalf("user %s: read not %s (info %+v)", u, what, info)
			}
		}
		return src.fetches.Load() - before
	}
	promoted := func(i EntryInfo) bool { return i.Verdict == obs.VerdictDisk }
	hit := func(i EntryInfo) bool { return i.Verdict == obs.VerdictHit }

	boot()
	readAll(func(i EntryInfo) bool { return i.Verdict != obs.VerdictHit && i.Verdict != obs.VerdictDisk }, "a miss")
	boot()
	defer func() { c.Close(); st.Close() }()
	if n := readAll(promoted, "disk-promoted"); n != 1 {
		t.Fatalf("%d promotes after a restart fetched the source %d times, want 1", K, n)
	}
	if n := readAll(hit, "a hit"); n != 0 {
		t.Fatalf("%d store-recheck hits fetched the source %d times, want 0", K, n)
	}
	clk.Advance(time.Second)
	mem.UpdateDirect("/d", memoContent) // out-of-band, same bytes
	if n := readAll(hit, "a hit"); n != 1 {
		t.Fatalf("after an out-of-band rewrite, %d hits fetched the source %d times, want 1", K, n)
	}
	clk.Advance(time.Second)
	mem.UpdateDirect("/d", []byte("rewritten out of band\n"))
	data, info, err := readBytes(c, "d", users[1])
	if err != nil {
		t.Fatal(err)
	}
	if info.Verdict == obs.VerdictHit || !bytes.Contains(data, []byte("rewritten")) {
		t.Fatalf("read after an out-of-band change = %q (info %+v), want the new bytes", data, info)
	}
}

// TestDiskPromoteIsAStage: a promote attempt is timed as the
// disk_promote stage, whether it serves the read (verdict disk, no
// bit fetch) or is refused and falls through to the read path.
func TestDiskPromoteIsAStage(t *testing.T) {
	d := newDurableWorld(t, Options{})
	setupMemoDoc(t, d.world, []string{"eyal"})
	d.read(t, "d", "eyal")

	o := obs.NewObserver()
	d.opts.Observer = o
	d.crashAndRestart()
	d.read(t, "d", "eyal")
	tr := o.Ring().Snapshot(1)
	if len(tr) != 1 || tr[0].Verdict != obs.VerdictDisk || tr[0].DiskPromote <= 0 || tr[0].BitFetch != 0 {
		t.Fatalf("trace = %+v, want a disk verdict timed as disk_promote alone", tr)
	}

	d.src.Store("/d", []byte("rewritten teh content while down\n"))
	o = obs.NewObserver()
	d.opts.Observer = o
	d.crashAndRestart()
	d.read(t, "d", "eyal")
	tr = o.Ring().Snapshot(1)
	if len(tr) != 1 || tr[0].Verdict != obs.VerdictMiss || tr[0].DiskPromote <= 0 || tr[0].BitFetch <= 0 {
		t.Fatalf("trace = %+v, want a refused promote, timed, then a miss", tr)
	}
	if n := o.StageHistogram(obs.StageDiskPromote).Count(); n != 1 {
		t.Fatalf("disk_promote stage count = %d, want 1", n)
	}
}

// memoViews reads every user's view of setupMemoDoc's document on a
// memoizing cache with no disk tier: the bytes each view is, the
// universal cut they all begin with, that cut's signature, and each
// user's content key.
func memoViews(t *testing.T, w *world, users []string) (views [][]byte, cut []byte, cutSig sig.Signature, keys []docspace.ContentKey) {
	t.Helper()
	c := New(w.space, Options{Name: "reference", Memoize: true})
	defer c.Close()
	for _, u := range users {
		body, _, err := c.ReadWithInfo("d", u)
		if err != nil {
			t.Fatal(err)
		}
		if len(body.Tail) == 0 || body.HeadSig.IsZero() {
			t.Fatalf("setup: %s's view is not tail-shared", u)
		}
		cut, cutSig = body.Head, body.HeadSig
		ck, err := w.space.ContentKey("d", u)
		if err != nil || !ck.Memoizable {
			t.Fatalf("setup: content key %+v, %v", ck, err)
		}
		views = append(views, body.Bytes())
		keys = append(keys, ck)
	}
	return views, cut, cutSig, keys
}

// TestDurableUpgradeFromJSONStore boots a cache over a store an older
// binary wrote, its metadata records JSON: the universal cut and every
// user's view as blobs, the intermediate, an entry per user (the first
// naming its head) and an epoch. It opens with the blobs and nothing
// else, so no epoch comes back and every read recomputes its view:
// never verdict disk, and never from the old intermediate (the first
// read is a miss, the others memo on the cut the first computed).
// Those reads demote in today's layout, so after a reopen the same
// reads promote.
func TestDurableUpgradeFromJSONStore(t *testing.T) {
	users := memoUsers(3)
	w := newWorld(t, Options{})
	setupMemoDoc(t, w, users)
	views, cut, cutSig, keys := memoViews(t, w, users)

	seg := handRecord("PLSG", cutSig, cut)
	meta := func(m map[string]any) {
		js := jsonEra(t, m)
		seg = append(seg, handRecord("PLMT", sig.Of(js), js)...)
	}
	meta(map[string]any{"t": "inter", "i": map[string]any{"src": keys[0].SourceSig.String(), "fp": keys[0].UniversalFP.String(), "sig": cutSig.String(), "cost": 0}})
	for i, u := range users {
		seg = append(seg, handRecord("PLSG", sig.Of(views[i]), views[i])...)
		e := jsonEraEntry(u, sig.Of(views[i]), keys[i], 7)
		if i == 0 {
			e["hsig"], e["hlen"] = cutSig.String(), len(cut)
		}
		meta(map[string]any{"t": "entry", "e": e})
	}
	meta(map[string]any{"t": "epoch", "doc": "d", "gen": 7})
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.plseg"), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, reopened := range []bool{false, true} {
		st, rec, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reopened && (rec != store.Recovery{Blobs: len(users) + 1}) {
			t.Fatalf("recovery = %+v, want the %d blobs and nothing else", rec, len(users)+1)
		}
		if reopened && rec.Entries != len(users) {
			t.Fatalf("reopened: recovery = %+v, want the %d entries the reads demoted", rec, len(users))
		}
		o := obs.NewObserver()
		c := New(w.space, Options{Name: "upgraded", Store: st, Observer: o})
		if g := c.tab.Gen("d"); g != 0 {
			t.Fatalf("reopened=%v: generation of d = %d, want 0: no JSON epoch is kept", reopened, g)
		}
		for i, u := range users {
			data, _, err := readBytes(c, "d", u)
			if err != nil || !bytes.Equal(data, views[i]) {
				t.Fatalf("reopened=%v: %s read %q, %v; want the view", reopened, u, data, err)
			}
			verdict := obs.VerdictDisk
			if !reopened {
				verdict = map[bool]string{true: obs.VerdictMiss, false: obs.VerdictMemo}[i == 0]
			}
			if tr := o.Ring().Snapshot(1); len(tr) != 1 || tr[0].Verdict != verdict {
				t.Fatalf("reopened=%v: %s's trace = %+v, want verdict %s", reopened, u, tr, verdict)
			}
		}
		if s := c.Stats(); !reopened && (s.StorePromotions != 0 || s.StoreIntermediatePromotions != 0) {
			t.Fatalf("promoted %d entries and %d intermediates from JSON records", s.StorePromotions, s.StoreIntermediatePromotions)
		}
		c.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurablePromoteRefusesAnUnprovenHead: an entry record's head is a
// claim the promote proves against the bytes. A length at or past the
// body's end, a length with no signature, a signature with no length, a
// signature of other bytes (resident in the table or not) and the
// right signature with the wrong length each leave the view whole,
// served with the right bytes, and cost the store no blob. The one
// true claim, beside them, is kept split.
func TestDurablePromoteRefusesAnUnprovenHead(t *testing.T) {
	type claim struct {
		name     string
		sig      sig.Signature
		length   func(view []byte) int
		resident bool // the claimed signature's bytes are in the table
	}
	cutLen := func(n int) func([]byte) int { return func([]byte) int { return n } }
	users := memoUsers(8)
	w := newWorld(t, Options{})
	setupMemoDoc(t, w, users)
	views, cut, cutSig, keys := memoViews(t, w, users)
	other := bytes.Repeat([]byte{'x'}, len(cut))
	otherSig := sig.Of(other)
	claims := []claim{
		{name: "the true head", sig: cutSig, length: cutLen(len(cut))},
		{name: "a length of the whole body", sig: cutSig, length: func(v []byte) int { return len(v) }},
		{name: "a length past the body", sig: cutSig, length: func(v []byte) int { return len(v) + 9 }},
		{name: "a length with no signature", length: cutLen(len(cut))},
		{name: "a signature with no length", sig: cutSig, length: cutLen(0)},
		{name: "a signature of other bytes", sig: otherSig, length: cutLen(len(cut))},
		{name: "a signature of other bytes the table holds", sig: otherSig, length: cutLen(len(cut)), resident: true},
		{name: "the head's signature with another length", sig: cutSig, length: cutLen(len(cut) - 1)},
	}
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, cl := range claims {
		s, err := st.PutBlob(views[i])
		if err != nil {
			t.Fatal(err)
		}
		ck := keys[i]
		if err := st.PutEntry(store.EntryMeta{Doc: "d", User: users[i], Sig: s, SourceSig: ck.SourceSig, UniversalFP: ck.UniversalFP, PersonalFP: ck.PersonalFP, HeadSig: cl.sig, HeadLen: cl.length(views[i])}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, _, err = store.Open(dir, store.Options{}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	blobs := st.Stats().Blobs
	c := New(w.space, Options{Name: "refusing", Memoize: true, Store: st})
	defer c.Close()
	for i, cl := range claims {
		if cl.resident && !c.tab.Install(Key("x", "holder"), &Entry{Doc: "x", User: "holder", Signature: otherSig}, stream.Body{Head: other}, c.tab.Gen("x"), sig.Zero) {
			t.Fatal("setup: the other bytes did not go in")
		}
		body, info, err := c.ReadWithInfo("d", users[i])
		if err != nil || info.Verdict != obs.VerdictDisk || !bytes.Equal(body.Bytes(), views[i]) {
			t.Fatalf("%s: promoted %q (%+v, %v), want the view", cl.name, body.Bytes(), info, err)
		}
		if split := len(body.Tail) > 0; split != (i == 0) {
			t.Errorf("%s: promoted as %d + %d bytes, head %v", cl.name, len(body.Head), len(body.Tail), body.HeadSig)
		}
		if _, ok := st.GetBlob(sig.Of(views[i])); !ok {
			t.Errorf("%s: the store lost the view's blob", cl.name)
		}
	}
	if got := st.Stats().Blobs; got != blobs {
		t.Fatalf("the store holds %d blobs after the promotes, %d before", got, blobs)
	}
}

// TestDurablePromoteKeepsTheCut: 64 users of one document read their
// views on a memoizing cache with a disk tier, and after a restart each
// promotes its own from disk. The promoted bodies come in two parts
// named by their head, every head the same bytes, so BytesResident is
// one head plus 64 tails, while BytesStored still charges every view
// its full length.
func TestDurablePromoteKeepsTheCut(t *testing.T) {
	users := memoUsers(churnUsers)
	d := newDurableWorld(t, Options{Memoize: true})
	setupMemoDoc(t, d.world, users)
	views := make([][]byte, len(users))
	for i, u := range users {
		views[i] = d.read(t, "d", u)
	}
	d.crashAndRestart()
	var head []byte
	var stored, tails int64
	for i, u := range users {
		body, info, err := d.cache.ReadWithInfo("d", u)
		if err != nil || info.Verdict != obs.VerdictDisk || !bytes.Equal(body.Bytes(), views[i]) {
			t.Fatalf("%s: not the promoted view: %+v, %v", u, info, err)
		}
		if len(body.Tail) == 0 || body.HeadSig.IsZero() {
			t.Fatalf("%s: promoted whole", u)
		}
		if head == nil {
			head = body.Head
		}
		if &body.Head[0] != &head[0] {
			t.Fatalf("%s: promoted on a head of its own", u)
		}
		stored += int64(len(views[i]))
		tails += int64(len(body.Tail))
	}
	if got, want := d.cache.Stats().BytesResident, int64(len(head))+tails; got != want {
		t.Fatalf("BytesResident = %d, want one %d-byte head plus %d tail bytes, %d", got, len(head), tails, want)
	}
	if got := d.cache.Stats().BytesStored; got != stored {
		t.Fatalf("BytesStored = %d, want every view's full length, %d", got, stored)
	}
}
