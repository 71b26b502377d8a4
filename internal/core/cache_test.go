package core

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/docspace"
	"placeless/internal/event"
	"placeless/internal/property"
	"placeless/internal/replace"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

var epoch = time.Date(1999, time.March, 28, 0, 0, 0, 0, time.UTC)

// world bundles a clock, repositories, a space and a cache for tests.
type world struct {
	clk   *clock.Virtual
	src   *repo.Mem
	web   *repo.Web
	feed  *repo.LiveFeed
	space *docspace.Space
	cache *Cache
}

func newWorld(t *testing.T, opts Options) *world {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	w := &world{
		clk:   clk,
		src:   repo.NewMem("nfs", clk, simnet.Local(1)),
		web:   repo.NewWeb("web", clk, simnet.WAN(2), 30*time.Second, true),
		feed:  repo.NewLiveFeed("cam", clk, simnet.LAN(3), 512),
		space: docspace.New(clk, repo.NewDMS("dms", clk, simnet.Local(4))),
	}
	w.cache = New(w.space, opts)
	return w
}

func (w *world) addDoc(t *testing.T, id, owner, path string, content []byte) {
	t.Helper()
	w.src.Store(path, content)
	if _, err := w.space.CreateDocument(id, owner, &property.RepoBitProvider{Repo: w.src, Path: path}); err != nil {
		t.Fatal(err)
	}
}

// readBytes is ReadWithInfo with the body in one slice (Body.Bytes:
// the table's own array unless the entry is tail-shared).
func readBytes(c *Cache, doc, user string) ([]byte, EntryInfo, error) {
	body, info, err := c.ReadWithInfo(doc, user)
	return body.Bytes(), info, err
}

func (w *world) read(t *testing.T, doc, user string) []byte {
	t.Helper()
	data, err := w.cache.Read(doc, user)
	if err != nil {
		t.Fatalf("Read(%s,%s): %v", doc, user, err)
	}
	return data
}

func TestMissThenHit(t *testing.T) {
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("content"))
	a := w.read(t, "d", "eyal")
	b := w.read(t, "d", "eyal")
	if !bytes.Equal(a, b) || string(a) != "content" {
		t.Fatalf("reads differ: %q vs %q", a, b)
	}
	st := w.cache.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !w.cache.Contains("d", "eyal") {
		t.Fatal("entry missing after hit")
	}
}

func TestHitIsFasterThanMiss(t *testing.T) {
	// The shape of Table 1: hit latency must be far below miss
	// latency for a remote document.
	w := newWorld(t, Options{HitCost: 500 * time.Microsecond})
	w.web.SetPage("/index.html", make([]byte, 10883))
	w.space.CreateDocument("gatech", "eyal", &property.RepoBitProvider{Repo: w.web, Path: "/index.html"})

	start := w.clk.Now()
	w.read(t, "gatech", "eyal")
	missTime := w.clk.Now().Sub(start)

	start = w.clk.Now()
	w.read(t, "gatech", "eyal")
	hitTime := w.clk.Now().Sub(start)

	if hitTime*10 > missTime {
		t.Fatalf("hit %v vs miss %v: expected order-of-magnitude win", hitTime, missTime)
	}
}

func TestReadUnknownDocument(t *testing.T) {
	w := newWorld(t, Options{})
	if _, err := w.cache.Read("ghost", "u"); !errors.Is(err, docspace.ErrNoDocument) {
		t.Fatalf("err = %v", err)
	}
}

// TestWarmHitCopiesNothing: a warm 8 KiB hit allocates nothing the
// size of the body; the one allocation left is the table key.
func TestWarmHitCopiesNothing(t *testing.T) {
	const size = 8 << 10
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", make([]byte, size))
	w.read(t, "d", "eyal")
	read := func() {
		if data := w.read(t, "d", "eyal"); len(data) != size {
			t.Fatalf("read %d bytes", len(data))
		}
	}
	if n := testing.AllocsPerRun(100, read); n > 1 {
		t.Fatalf("a warm hit allocates %v times, want at most 1 (the key)", n)
	}
	const reads = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per >= size/2 {
		t.Fatalf("a warm hit allocates %d bytes of an %d-byte body", per, size)
	}
	if st := w.cache.Stats(); st.Misses != 1 {
		t.Fatalf("%d misses: every measured read must be a hit", st.Misses)
	}
}

func TestVerifierCatchesOutOfBandUpdate(t *testing.T) {
	// Invalidation cause 1, uncontrolled case: the file changes on
	// the file system behind Placeless's back; the bit-provider's
	// mtime verifier must catch it on the next hit.
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("v1"))
	w.read(t, "d", "eyal")
	w.clk.Advance(time.Minute)
	w.src.UpdateDirect("/d", []byte("v2"))
	got := w.read(t, "d", "eyal")
	if string(got) != "v2" {
		t.Fatalf("stale read %q after out-of-band update", got)
	}
	st := w.cache.Stats()
	if st.VerifierRejects != 1 {
		t.Fatalf("VerifierRejects = %d", st.VerifierRejects)
	}
	if st.Misses != 2 {
		t.Fatalf("Misses = %d", st.Misses)
	}
}

func TestTTLVerifierExpiresWebContent(t *testing.T) {
	w := newWorld(t, Options{})
	w.web.SetPage("/p", []byte("page v1"))
	w.space.CreateDocument("p", "u", &property.RepoBitProvider{Repo: w.web, Path: "/p"})
	w.read(t, "p", "u")
	// Within TTL: hit even though origin changed (the web consistency
	// model tolerates this staleness).
	w.web.SetPage("/p", []byte("page v2"))
	if got := w.read(t, "p", "u"); string(got) != "page v1" {
		t.Fatalf("within TTL got %q, want cached v1", got)
	}
	// After TTL: refetch.
	w.clk.Advance(time.Minute)
	if got := w.read(t, "p", "u"); string(got) != "page v2" {
		t.Fatalf("after TTL got %q", got)
	}
}

func TestNotifierInvalidatesOnPlacelessWrite(t *testing.T) {
	// Invalidation cause 1, controlled case: "if Doug were to update
	// the document, one of the notifiers at the base document would
	// invalidate Eyal's cached version."
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("v1"))
	w.space.AddReference("d", "doug")
	w.read(t, "d", "eyal")
	if err := w.cache.Write("d", "doug", []byte("doug's edit")); err != nil {
		t.Fatal(err)
	}
	if w.cache.Contains("d", "eyal") {
		t.Fatal("Eyal's entry survived Doug's write")
	}
	if got := w.read(t, "d", "eyal"); string(got) != "doug's edit" {
		t.Fatalf("got %q", got)
	}
	st := w.cache.Stats()
	if st.Notifications == 0 || st.Invalidations == 0 {
		t.Fatalf("stats = %+v, want notifier activity", st)
	}
}

func TestNotifierInvalidatesOnActivePropertyChange(t *testing.T) {
	// Invalidation cause 2: adding a universal translation property
	// invalidates every cached version of the document.
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("the paper"))
	w.read(t, "d", "eyal")
	if err := w.space.Attach("d", "", docspace.Universal, property.NewTranslator(0)); err != nil {
		t.Fatal(err)
	}
	if w.cache.Contains("d", "eyal") {
		t.Fatal("entry survived property addition")
	}
	if got := w.read(t, "d", "eyal"); string(got) != "le papier" {
		t.Fatalf("got %q", got)
	}
}

func TestNotifierInvalidatesOnPropertyUpgrade(t *testing.T) {
	// "If Eyal were to upgrade his spelling corrector to a new
	// release, this would trigger an invalidation of the cached
	// content."
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("teh paper"))
	w.space.Attach("d", "eyal", docspace.Personal, property.NewSpellCorrector(0))
	w.read(t, "d", "eyal")
	v2 := property.NewSpellCorrector(0)
	v2.Version = 2
	if err := w.space.Replace("d", "eyal", docspace.Personal, "spell-correct", v2); err != nil {
		t.Fatal(err)
	}
	if w.cache.Contains("d", "eyal") {
		t.Fatal("entry survived property upgrade")
	}
}

func TestNotifierInvalidatesOnReorder(t *testing.T) {
	// Invalidation cause 3: changing the execution order of the
	// properties changes the content.
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("one\ntwo\nthree\n"))
	w.space.Attach("d", "eyal", docspace.Personal, property.NewSummarizer(1, 0))
	w.space.Attach("d", "eyal", docspace.Personal, property.NewLineNumberer(0))
	before := w.read(t, "d", "eyal")
	if err := w.space.Reorder("d", "eyal", docspace.Personal, []string{"line-number", "summarize-1"}); err != nil {
		t.Fatal(err)
	}
	after := w.read(t, "d", "eyal")
	if bytes.Equal(before, after) {
		t.Fatal("reorder did not change served content")
	}
	if st := w.cache.Stats(); st.Misses != 2 {
		t.Fatalf("Misses = %d, want re-execution after reorder", st.Misses)
	}
}

func TestStaticPropertyDoesNotInvalidate(t *testing.T) {
	// Static labels cannot change content: attaching one (e.g. Paul's
	// "1999 workshop submission") must not blow the cache.
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("x"))
	w.read(t, "d", "eyal")
	w.space.AttachStatic("d", "", docspace.Universal, property.Static{Key: "1999 workshop submission"})
	if !w.cache.Contains("d", "eyal") {
		t.Fatal("static label invalidated the cache")
	}
	w.read(t, "d", "eyal")
	if st := w.cache.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSecondCacheMachineryDoesNotInvalidate(t *testing.T) {
	// Two caches share the space; the second cache installing its
	// notifiers must not invalidate the first cache's entries.
	w := newWorld(t, Options{Name: "c1"})
	w.addDoc(t, "d", "eyal", "/d", []byte("x"))
	w.read(t, "d", "eyal")
	c2 := New(w.space, Options{Name: "c2"})
	if _, err := c2.Read("d", "eyal"); err != nil {
		t.Fatal(err)
	}
	if !w.cache.Contains("d", "eyal") {
		t.Fatal("cache 2's notifier installation invalidated cache 1")
	}
}

// TestPropertyNamedLikeANotifierDoesNotBlindTheCache: a cache's
// notifiers listen on the document's and the reference's event
// registries and take no name in the property chain, so a user
// property that happens to carry the name the cache gives its notifier
// neither blocks the subscription nor stands in for it — the next
// personal change still reaches the cache.
func TestPropertyNamedLikeANotifierDoesNotBlindTheCache(t *testing.T) {
	w := newWorld(t, Options{Name: "appcache"})
	w.addDoc(t, "d", "eyal", "/d", []byte("hello"))
	numberer := property.NewLineNumberer(0)
	numberer.PropName = "notifier:appcache:d:eyal"
	if err := w.space.Attach("d", "eyal", docspace.Personal, numberer); err != nil {
		t.Fatal(err)
	}
	before := w.read(t, "d", "eyal")
	if err := w.space.Attach("d", "eyal", docspace.Personal, property.NewUppercaser(0)); err != nil {
		t.Fatal(err)
	}
	if after := w.read(t, "d", "eyal"); bytes.Equal(after, before) {
		t.Fatalf("read after a personal attach still serves %q", after)
	}
}

func TestPersonalChangeInvalidatesOnlyThatUser(t *testing.T) {
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("shared"))
	w.space.AddReference("d", "paul")
	w.read(t, "d", "eyal")
	w.read(t, "d", "paul")
	w.space.Attach("d", "paul", docspace.Personal, property.NewUppercaser(0))
	if w.cache.Contains("d", "paul") {
		t.Fatal("paul's entry survived his property change")
	}
	if !w.cache.Contains("d", "eyal") {
		t.Fatal("eyal's entry was collateral damage of paul's personal change")
	}
}

func TestUncacheableLiveFeed(t *testing.T) {
	w := newWorld(t, Options{})
	w.space.CreateDocument("cam", "u", &property.RepoBitProvider{
		Repo: w.feed, Path: "/cam1", Vote: property.Uncacheable,
	})
	a := w.read(t, "cam", "u")
	b := w.read(t, "cam", "u")
	if bytes.Equal(a, b) {
		t.Fatal("live feed frames identical — was it cached?")
	}
	st := w.cache.Stats()
	if st.Misses != 2 || st.Uncacheable != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if w.cache.Len() != 0 {
		t.Fatal("uncacheable content was stored")
	}
}

func TestCacheWithEventsForwardsOperations(t *testing.T) {
	// An audit-trail property forces CacheWithEvents: hits are served
	// from the cache but getInputStream events keep flowing so the
	// trail stays complete.
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("audited"))
	trail := property.NewAuditTrail()
	w.space.Attach("d", "", docspace.Universal, trail)
	w.read(t, "d", "eyal") // miss
	w.read(t, "d", "eyal") // hit + forwarded event
	w.read(t, "d", "eyal") // hit + forwarded event
	recs := trail.Records()
	if len(recs) != 3 {
		t.Fatalf("audit records = %d, want 3", len(recs))
	}
	forwarded := 0
	for _, r := range recs {
		if r.Forwarded {
			forwarded++
		}
	}
	if forwarded != 2 {
		t.Fatalf("forwarded = %d, want 2", forwarded)
	}
	st := w.cache.Stats()
	if st.EventsForwarded != 2 || st.Hits != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSignatureSharingAcrossUsers(t *testing.T) {
	// "content entries could be shared if the cache maps a pair of
	// document and user identifiers to a content signature and in
	// turn these signatures map to the actual content."
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("identical for everyone"))
	w.space.AddReference("d", "paul")
	w.read(t, "d", "eyal")
	w.read(t, "d", "paul")
	st := w.cache.Stats()
	if w.cache.Len() != 2 {
		t.Fatalf("entries = %d", w.cache.Len())
	}
	if st.BytesStored != int64(len("identical for everyone")) {
		t.Fatalf("BytesStored = %d, want single blob", st.BytesStored)
	}
	if st.BytesLogical != 2*st.BytesStored {
		t.Fatalf("BytesLogical = %d", st.BytesLogical)
	}
	if st.SharedEntries != 2 {
		t.Fatalf("SharedEntries = %d", st.SharedEntries)
	}
}

func TestNoSharingWhenPersonalized(t *testing.T) {
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("base"))
	w.space.AddReference("d", "paul")
	w.space.Attach("d", "paul", docspace.Personal, property.NewUppercaser(0))
	w.read(t, "d", "eyal")
	w.read(t, "d", "paul")
	st := w.cache.Stats()
	if st.SharedEntries != 0 {
		t.Fatalf("SharedEntries = %d, want 0 for personalized content", st.SharedEntries)
	}
	if st.BytesStored != st.BytesLogical {
		t.Fatalf("stored %d vs logical %d should match without sharing", st.BytesStored, st.BytesLogical)
	}
}

func TestSharedBlobSurvivesOneUserInvalidation(t *testing.T) {
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("shared bits"))
	w.space.AddReference("d", "paul")
	w.read(t, "d", "eyal")
	w.read(t, "d", "paul")
	w.cache.Invalidate("d", "paul")
	if !w.cache.Contains("d", "eyal") {
		t.Fatal("eyal's entry dropped")
	}
	if got := w.read(t, "d", "eyal"); string(got) != "shared bits" {
		t.Fatalf("got %q", got)
	}
	st := w.cache.Stats()
	if st.BytesStored != int64(len("shared bits")) {
		t.Fatalf("BytesStored = %d after partial invalidation", st.BytesStored)
	}
}

func TestCapacityEviction(t *testing.T) {
	w := newWorld(t, Options{Capacity: 2500, Policy: replace.NewLRU()})
	for i, id := range []string{"a", "b", "c"} {
		path := "/" + id
		w.src.Store(path, bytes.Repeat([]byte{byte('a' + i)}, 1000))
		w.space.CreateDocument(id, "u", &property.RepoBitProvider{Repo: w.src, Path: path})
		w.read(t, id, "u")
	}
	st := w.cache.Stats()
	if st.BytesStored > 2500 {
		t.Fatalf("BytesStored = %d exceeds capacity", st.BytesStored)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if w.cache.Contains("a", "u") {
		t.Fatal("LRU kept the oldest entry")
	}
	if !w.cache.Contains("c", "u") {
		t.Fatal("LRU evicted the newest entry")
	}
}

func TestGDSEvictionKeepsExpensiveEntry(t *testing.T) {
	// The paper's motivation for cost-aware replacement: "A cache may
	// wish to tailor its replacement policy to favor documents with
	// numerous or complicated active properties."
	w := newWorld(t, Options{Capacity: 2100})
	// Expensive: remote (WAN) document with a costly property chain.
	w.web.SetPage("/slow", bytes.Repeat([]byte("w"), 1000))
	w.space.CreateDocument("slow", "u", &property.RepoBitProvider{Repo: w.web, Path: "/slow"})
	w.space.Attach("slow", "u", docspace.Personal, property.NewTranslator(100*time.Millisecond))
	// Cheap: local documents.
	w.src.Store("/fast1", bytes.Repeat([]byte("f"), 1000))
	w.src.Store("/fast2", bytes.Repeat([]byte("g"), 1000))
	w.space.CreateDocument("fast1", "u", &property.RepoBitProvider{Repo: w.src, Path: "/fast1"})
	w.space.CreateDocument("fast2", "u", &property.RepoBitProvider{Repo: w.src, Path: "/fast2"})

	w.read(t, "slow", "u")
	w.read(t, "fast1", "u")
	w.read(t, "fast2", "u") // must evict a cheap entry, not the slow one
	if !w.cache.Contains("slow", "u") {
		t.Fatal("GDS evicted the expensive-to-rebuild document")
	}
}

func TestWriteThroughInvalidatesAndStores(t *testing.T) {
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("v1"))
	w.read(t, "d", "eyal")
	if err := w.cache.Write("d", "eyal", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	fr, _ := w.src.Fetch("/d")
	if string(fr.Data) != "v2" {
		t.Fatalf("repo has %q", fr.Data)
	}
	if got := w.read(t, "d", "eyal"); string(got) != "v2" {
		t.Fatalf("read-back %q", got)
	}
}

// TestWriteRunsWritePathEvents pins that a write through the cache runs
// the full write path: the rules registered on getOutputStream fire
// from the write itself, so nothing has to be forwarded for them.
func TestWriteRunsWritePathEvents(t *testing.T) {
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("v1"))
	trail := property.NewAuditTrail()
	w.space.Attach("d", "", docspace.Universal, trail)
	if err := w.cache.Write("d", "eyal", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	recs := trail.Records()
	if len(recs) != 1 || recs[0].Kind != event.GetOutputStream || recs[0].Forwarded {
		t.Fatalf("records = %+v, want one write event from the write path itself", recs)
	}
	if st := w.cache.Stats(); st.EventsForwarded != 0 {
		t.Fatalf("EventsForwarded = %d, want 0: a write forwards nothing", st.EventsForwarded)
	}
	if fr, _ := w.src.Fetch("/d"); string(fr.Data) != "v2" {
		t.Fatalf("repo has %q", fr.Data)
	}
}

func TestCloseDetachesNotifiersAndRejectsUse(t *testing.T) {
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("x"))
	w.read(t, "d", "eyal")
	if len(w.cache.notifiers.Installed()) == 0 {
		t.Fatal("expected installed notifier before Close")
	}
	w.cache.Close()
	if left := w.cache.notifiers.Installed(); len(left) != 0 {
		t.Fatalf("notifiers left registered: %v", left)
	}
	notified := w.cache.Stats().Notifications
	if err := w.space.WriteDocument("d", "eyal", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := w.cache.Stats().Notifications; got != notified {
		t.Fatalf("a write after Close notified the cache: %d -> %d", notified, got)
	}
	if _, err := w.cache.Read("d", "eyal"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after Close: %v", err)
	}
	if err := w.cache.Write("d", "eyal", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close: %v", err)
	}
	w.cache.Close() // a second Close is a no-op
}

func TestDisableNotifiersFallsBackToVerifiers(t *testing.T) {
	w := newWorld(t, Options{DisableNotifiers: true})
	w.addDoc(t, "d", "eyal", "/d", []byte("v1"))
	w.read(t, "d", "eyal")
	// A Placeless write is not pushed... but the mtime verifier still
	// catches the change on the next read.
	w.clk.Advance(time.Second)
	w.space.WriteDocument("d", "eyal", []byte("v2"))
	if got := w.read(t, "d", "eyal"); string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
	st := w.cache.Stats()
	if st.Notifications != 0 {
		t.Fatalf("Notifications = %d with notifiers disabled", st.Notifications)
	}
	if st.VerifierRejects != 1 {
		t.Fatalf("VerifierRejects = %d", st.VerifierRejects)
	}
}

func TestDisableVerifiersServesStaleUntilNotified(t *testing.T) {
	w := newWorld(t, Options{DisableVerifiers: true})
	w.addDoc(t, "d", "eyal", "/d", []byte("v1"))
	w.read(t, "d", "eyal")
	w.clk.Advance(time.Second)
	w.src.UpdateDirect("/d", []byte("v2")) // outside Placeless control
	if got := w.read(t, "d", "eyal"); string(got) != "v1" {
		t.Fatalf("got %q, expected stale hit with verifiers off", got)
	}
	// But notifier-covered changes still invalidate.
	w.space.WriteDocument("d", "eyal", []byte("v3"))
	if got := w.read(t, "d", "eyal"); string(got) != "v3" {
		t.Fatalf("got %q", got)
	}
}

func TestResize(t *testing.T) {
	w := newWorld(t, Options{})
	for i, id := range []string{"a", "b", "c"} {
		w.src.Store("/"+id, bytes.Repeat([]byte{byte('a' + i)}, 1000))
		w.space.CreateDocument(id, "u", &property.RepoBitProvider{Repo: w.src, Path: "/" + id})
		w.read(t, id, "u")
	}
	if w.cache.Len() != 3 {
		t.Fatalf("Len = %d", w.cache.Len())
	}
	w.cache.Resize(1500) // room for one entry
	if st := w.cache.Stats(); st.BytesStored > 1500 {
		t.Fatalf("BytesStored = %d after shrink", st.BytesStored)
	}
	if got := w.cache.Capacity(); got != 1500 {
		t.Fatalf("Capacity = %d", got)
	}
	w.cache.Resize(0) // unlimited again
	for _, id := range []string{"a", "b", "c"} {
		w.read(t, id, "u")
	}
	if w.cache.Len() != 3 {
		t.Fatalf("Len after regrow = %d", w.cache.Len())
	}
}

func TestStatsHitRatio(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Fatal("empty ratio should be 0")
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRatio() != 0.75 {
		t.Fatalf("HitRatio = %v", s.HitRatio())
	}
}

func TestPolicyName(t *testing.T) {
	w := newWorld(t, Options{})
	if w.cache.Policy() != "gds" {
		t.Fatalf("default policy = %q, want gds (the paper's choice)", w.cache.Policy())
	}
}

func TestConcurrentReaders(t *testing.T) {
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("concurrent"))
	users := []string{"u1", "u2", "u3", "u4"}
	for _, u := range users {
		w.space.AddReference("d", u)
	}
	var wg sync.WaitGroup
	for _, u := range users {
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				data, err := w.cache.Read("d", u)
				if err != nil || string(data) != "concurrent" {
					t.Errorf("read = %q, %v", data, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := w.cache.Stats()
	if st.Hits+st.Misses != 100 {
		t.Fatalf("accesses = %d", st.Hits+st.Misses)
	}
}

func TestGroupMembersShareCacheEntry(t *testing.T) {
	// Members reading through a group-owned reference share one cache
	// entry (same resolved reference, same chain, same content).
	w := newWorld(t, Options{})
	w.addDoc(t, "spec", "author", "/spec", []byte("teh spec"))
	w.space.DefineGroup("reviewers", "alice", "bob")
	if _, err := w.space.AddReference("spec", "reviewers"); err != nil {
		t.Fatal(err)
	}
	w.space.Attach("spec", "reviewers", docspace.Personal, property.NewSpellCorrector(0))

	a := w.read(t, "spec", "alice") // miss, keyed by the group
	b := w.read(t, "spec", "bob")   // hit on the same entry
	if string(a) != "the spec" || !bytes.Equal(a, b) {
		t.Fatalf("views: %q vs %q", a, b)
	}
	st := w.cache.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want shared entry", st)
	}
	if w.cache.Len() != 1 {
		t.Fatalf("entries = %d, want 1 group entry", w.cache.Len())
	}
	// A group-level property change invalidates the shared entry for
	// everyone.
	w.space.Attach("spec", "reviewers", docspace.Personal, property.NewUppercaser(0))
	if got := w.read(t, "spec", "alice"); string(got) != "THE SPEC" {
		t.Fatalf("after group property change: %q", got)
	}
}

func TestNotifierNamesIncludeCacheName(t *testing.T) {
	w := newWorld(t, Options{Name: "appcache"})
	w.addDoc(t, "d", "eyal", "/d", []byte("x"))
	w.read(t, "d", "eyal")
	names := w.cache.notifiers.Installed()
	if len(names) != 2 || !strings.Contains(names[0], "appcache") || !strings.Contains(names[1], "appcache") {
		t.Fatalf("notifiers missing the cache name: %v", names)
	}
}
