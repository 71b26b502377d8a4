// Package core implements the Placeless document-content cache: the
// caching architecture that is the paper's contribution.
//
// The cache sits between applications and the Placeless middleware
// (the paper's application-level cache, co-located with the
// application). Entries are identified by (document, user) because
// active properties personalize content per user; identical content is
// stored once via content signatures. Consistency is maintained by two
// mechanisms: notifiers — listeners the cache registers on the event
// registries of base documents and references, which push
// invalidations for changes under Placeless control — and verifiers —
// code returned with the content and executed on every hit, which
// catch changes outside Placeless control. Cacheability indicators aggregated along the read path
// decide whether content may be cached and whether operation events
// must still be forwarded. Replacement is cost-aware (Greedy-Dual-Size
// by default), driven by the replacement cost the read path
// accumulates.
//
// Concurrency: the cache keeps its entries in a Table (table.go), the
// one entry table of both placements — its index is partitioned into
// lock-striped shards (shard.go) so readers of different entries never
// contend; the signature → bytes store and the replacement policy sit
// behind their own leaf locks; counters are atomic. Concurrent misses
// on one key are coalesced single-flight (singleflight.go) so the read
// path — property-chain execution, verifier install, notifier
// registration — runs exactly once per stampede. Under single-threaded
// access the cache behaves byte-identically to a globally locked one:
// verifiers still run on every hit, cacheability aggregation is
// unchanged, and the eviction sequence is pinned by the determinism
// golden test.
package core

import (
	"errors"
	"sync"
	"time"

	"placeless/internal/clock"
	"placeless/internal/docspace"
	"placeless/internal/event"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/replace"
	"placeless/internal/sig"
	"placeless/internal/store"
	"placeless/internal/stream"
)

// ErrClosed is returned by operations on a closed cache.
var ErrClosed = errors.New("core: cache is closed")

// Options configures a Cache.
type Options struct {
	// Name identifies the cache in its notifiers' names
	// (docspace.NotifierPair.Installed).
	Name string
	// Capacity is the content budget in bytes (unique bytes after
	// signature sharing, each blob charged its full length:
	// Stats.BytesStored). Zero means unlimited.
	Capacity int64
	// Policy supplies the replacement policy; nil defaults to
	// Greedy-Dual-Size.
	Policy replace.Policy
	// HitCost is the simulated local access time charged on a cache
	// hit (the cost of the cache lookup itself), before verifier
	// execution.
	HitCost time.Duration
	// FillCost is the simulated overhead of installing notifiers and
	// storing an entry on a miss.
	FillCost time.Duration
	// DisableNotifiers suppresses notifier installation (verifier-
	// only consistency), for experiment E1.
	DisableNotifiers bool
	// DisablePrefetch turns off related-document prefetching (the
	// collection-property hint), for experiment E8's ablation.
	DisablePrefetch bool
	// DisableVerifiers skips verifier execution on hits (notifier-
	// only consistency), for experiment E1.
	DisableVerifiers bool
	// Memoize enables content-addressed memoization of read-path
	// prefixes: on a miss, the output at every memoizable property
	// boundary is cached keyed by (source signature, chain-prefix
	// fingerprint) and reused across users, with only the suffix past
	// the deepest cached cut re-executed (see intermediate.go). Off by
	// default — intermediates consume capacity and skip the covered
	// transforms' simulated execution time, which would perturb
	// experiments calibrated against full-chain misses.
	Memoize bool
	// Observer, when non-nil, receives per-read traces and stage
	// timings, and the cache registers its counters on the observer's
	// registry under stable placeless_cache_* names (see obs.go). One
	// Observer serves one cache. Nil disables all instrumentation at
	// zero cost to the read path.
	Observer *obs.Observer
	// Store, when non-nil, attaches the durable content-addressed disk
	// tier (internal/store): eligible results are demoted to disk at
	// install time, misses consult the tier before
	// executing transforms, and invalidation epochs are persisted so a
	// restart never serves a signature invalidated while the process
	// was down (see durable.go). The tier is built on content
	// addressing, so attaching a store forces Memoize on. The store's
	// lifetime belongs to the caller: close it after Close returns. One
	// Store serves one cache at a time.
	Store *store.Store
}

// Stats counts cache activity. All counters are cumulative.
type Stats struct {
	// Hits are reads served from the cache (verifiers passed).
	Hits int64
	// Misses are reads that executed the full Placeless read path,
	// including the first access to a document.
	Misses int64
	// CoalescedMisses are reads that missed while another goroutine
	// was already executing the read path for the same (document,
	// user) key and received that execution's result instead of
	// running their own (single-flight coalescing). They count
	// neither as Hits nor as Misses.
	CoalescedMisses int64
	// VerifierRejects counts hits discarded because a verifier
	// reported the entry invalid.
	VerifierRejects int64
	// Notifications counts invalidations pushed by notifiers.
	Notifications int64
	// Invalidations counts entries dropped by notifications.
	Invalidations int64
	// Evictions counts entries dropped by the replacement policy.
	Evictions int64
	// Uncacheable counts reads whose result could not be cached.
	Uncacheable int64
	// EventsForwarded counts operation events forwarded for
	// CacheWithEvents entries.
	EventsForwarded int64
	// Prefetches counts (document, user) views loaded ahead of any read
	// of them: because a property declared the document related to one
	// being read (collection prefetching), or by Warm after a write
	// stranded the document's shared prefix.
	Prefetches int64
	// BytesStored is the unique content capacity charges: every blob an
	// entry or cut holds, at its full length, after signature sharing.
	BytesStored int64
	// BytesResident is the memory those blobs occupy. A personal view
	// built by appending to a resident cut keeps only what was appended
	// and shares the cut's bytes, so it is at most BytesStored.
	BytesResident int64
	// BytesLogical is the current sum of entry sizes before signature
	// sharing.
	BytesLogical int64
	// SharedEntries counts current entries whose blob is shared with
	// at least one other entry.
	SharedEntries int64
	// IntermediateHits counts prefix cuts served memoized (resident,
	// coalesced onto a concurrent computation, or promoted from disk)
	// instead of being re-executed.
	IntermediateHits int64
	// UniversalStageRuns counts actual executions of the universal
	// property chain under memoization — one per (source signature,
	// chain fingerprint) while the intermediate stays resident.
	UniversalStageRuns int64
	// BytesRecomputedSaved accumulates the sizes of cuts served without
	// recomputation: bytes the covered transforms did not have to
	// produce again.
	BytesRecomputedSaved int64
	// IntermediateEntries is the current number of memoized prefix
	// cuts, universal and personal.
	IntermediateEntries int64
	// IntermediateBytes is the current logical footprint of memoized
	// cuts (before signature sharing).
	IntermediateBytes int64

	// PrefixHits counts longest-prefix probes that found a cached cut:
	// misses that resumed the transform pipeline from a memoized
	// prefix instead of the raw source.
	PrefixHits int64
	// PrefixSegmentRuns counts segment executions under the N-cut
	// pipeline (one per computed cut, so a cold chain with k cuts
	// contributes k).
	PrefixSegmentRuns int64
	// PrefixInstalls counts prefix cuts admitted to the index.
	PrefixInstalls int64
	// PrefixFallbackErrors counts staged reads that degraded to direct
	// transform execution because the read's PrefixIntermediates failed
	// mid-read (slow, not broken).
	PrefixFallbackErrors int64

	// StoreDemotions counts (doc, user) results written behind to the
	// durable disk tier at install time.
	StoreDemotions int64
	// StoreIntermediateDemotions counts prefix cuts written to the disk
	// tier.
	StoreIntermediateDemotions int64
	// StorePromotions counts misses served by revalidating and
	// promoting a durable entry instead of executing transforms.
	StorePromotions int64
	// StoreIntermediatePromotions counts segment executions avoided by
	// promoting a durable cut.
	StoreIntermediatePromotions int64
	// StorePromotionRejects counts durable entries found for a missing
	// key but refused — content key mismatch, stale epoch, missing or
	// corrupt blob — and recomputed instead.
	StorePromotionRejects int64
	// StoreErrors counts disk-tier I/O failures (demotion writes,
	// epoch appends). The tier is write-behind, so errors degrade
	// durability, never correctness.
	StoreErrors int64
}

// HitRatio returns Hits / (Hits + Misses), or 0 with no traffic.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a Placeless document-content cache. It is safe for
// concurrent use: see shard.go for the locking architecture and the
// lock-ordering rules every method follows.
type Cache struct {
	space *docspace.Space
	clk   clock.Clock
	opts  Options // immutable after New (Capacity lives in the table)

	// tab is the entry table — (doc, user) entries and memoized prefix
	// cuts alike — with its blobs, policy, flights and generations.
	// Its closed flag is the cache's.
	tab *Table

	// stranded marks the documents (doc → struct{}) whose last content
	// write dropped a resident universal cut; Warm consumes the mark.
	stranded sync.Map

	// lastCause remembers, per document, the most recent invalidation
	// cause (doc → string, obs.Cause* vocabulary) so the next miss can
	// attribute itself. Only populated when an Observer is attached.
	lastCause sync.Map

	// notifiers is the cache's notifier pair on the space, registered
	// per (document, user) at miss time and unsubscribed on Close.
	notifiers *docspace.NotifierPair

	stats statsCounters
}

// New returns a cache in front of space.
func New(space *docspace.Space, opts Options) *Cache {
	if opts.Name == "" {
		opts.Name = "cache"
	}
	if opts.Store != nil {
		// The disk tier is an extension of the content-addressed
		// machinery: demotion records content keys the staged read path
		// computes, so durability implies memoization.
		opts.Memoize = true
	}
	policy := opts.Policy
	if policy == nil {
		policy = replace.NewGDS()
	}
	c := &Cache{
		space: space,
		clk:   space.Clock(),
		opts:  opts,
		tab:   NewTable(policy, nil),
	}
	c.notifiers = docspace.NewNotifierPair(space, "notifier:"+opts.Name, c.onBaseEvent, c.onRefEvent)
	c.tab.Resize(opts.Capacity)
	if opts.Store != nil {
		// Seed the invalidation-generation counters from the persisted
		// epochs, so generations recorded by this process continue the
		// sequence the previous process left on disk — an entry demoted
		// now can never be mistaken for one invalidated before boot.
		for doc, gen := range opts.Store.Epochs() {
			c.tab.gen(doc).Store(gen)
		}
	}
	if opts.Observer != nil {
		c.registerMetrics(opts.Observer)
	}
	return c
}

// Resize changes the capacity budget at runtime and evicts immediately
// if the cache is now over budget. capacity <= 0 means unlimited.
func (c *Cache) Resize(capacity int64) { c.tab.Resize(capacity) }

// Capacity returns the current byte budget (0 = unlimited).
func (c *Cache) Capacity() int64 { return c.tab.capacity.Load() }

// Policy returns the replacement policy's name.
func (c *Cache) Policy() string { return c.tab.policy.Name() }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats.snapshot(c.tab) }

// Len reports how many (document, user) entries are cached.
func (c *Cache) Len() int { return c.tab.Len() }

// Contains reports whether a valid entry exists for (doc, user)
// without running verifiers or charging time.
func (c *Cache) Contains(doc, user string) bool { return c.tab.Contains(Key(doc, user)) }

// EntryInfo is the cache-relevant metadata of a served read, for
// consumers that layer further caches on top (e.g. the Placeless
// server exposing a server-side cache to remote application caches).
type EntryInfo struct {
	// Cacheability is the read path's aggregated vote.
	Cacheability property.Cacheability
	// Cost is the replacement cost of rebuilding the content.
	Cost time.Duration
	// Expiry is the earliest TTL-verifier deadline attached to the
	// content (zero when no TTL applies). Unlike verifier code, a
	// deadline can cross the wire, so layered remote caches can honor
	// web-style freshness.
	Expiry time.Time
	// Verdict is how the read was served, one of obs.VerdictHit,
	// VerdictMiss, VerdictMemo (a miss whose universal stage was
	// served memoized), VerdictDisk (a miss served by promoting a
	// revalidated entry from the durable tier: no transform ran) and
	// VerdictCoalesced (a miss that received another goroutine's
	// read-path result). It is the verdict an Observer counts.
	Verdict string
	// Signature is the content signature of the returned bytes, set
	// when the result is held in (or was just installed into / promoted
	// from) the signature-addressed blob tier; zero otherwise. The wire
	// server ships it in the read metadata (hashing the body itself only
	// when it is zero), and a remote cache keys its blob by it.
	Signature sig.Signature
}

// Read returns the document content as seen by user, serving from the
// cache when possible. On a hit every verifier attached to the entry
// runs; any failure discards the entry and re-executes the read path.
//
// The bytes are shared and must not be modified: a hit, a coalesced
// follower, an installing miss and a disk promote all return the
// table's own blob, the rule Table.Lookup states — except for a
// tail-shared entry, whose two parts Read copies into one slice.
//
// Accesses are keyed by the reference they resolve to: a user reading
// through a group-owned reference shares the group's cache entry,
// since every member sees the identical property chain.
func (c *Cache) Read(doc, user string) ([]byte, error) {
	body, err := c.ReadBody(doc, user)
	return body.Bytes(), err
}

// ReadBody is Read with the bytes as the table holds them (see
// ReadWithInfo), so a tail-shared entry is not copied.
func (c *Cache) ReadBody(doc, user string) (stream.Body, error) {
	body, _, err := c.ReadWithInfo(doc, user)
	return body, err
}

// ReadWithInfo is Read plus the entry metadata a layered cache needs,
// with the bytes as the table holds them: a tail-shared entry comes
// back as its base's bytes and its own tail, for a caller that can
// send two parts (the wire server) and so never copies them. With an
// Observer attached it also records the read: verdict and miss-cause
// counters, per-stage latency histograms, and a ReadTrace in the ring
// buffer.
func (c *Cache) ReadWithInfo(doc, user string) (stream.Body, EntryInfo, error) {
	o := c.opts.Observer
	if o == nil {
		return c.readWithInfo(doc, user, nil)
	}
	tr := &obs.ReadTrace{Doc: doc, User: user}
	t0 := time.Now()
	data, info, err := c.readWithInfo(doc, user, tr)
	tr.Total = time.Since(t0)
	tr.Time = time.Now()
	tr.Verdict = info.Verdict
	if err != nil {
		tr.Verdict = obs.VerdictError
		tr.Err = err.Error()
	}
	switch tr.Verdict {
	case obs.VerdictMiss, obs.VerdictMemo:
		tr.Cause = c.missCause(doc)
	}
	o.ObserveRead(*tr)
	return data, info, err
}

// ReadSharedHit serves a clean cache hit, read-only like every read,
// without ever blocking on the read path: ok reports whether an entry
// was present and passed its verifiers. Every other outcome — miss,
// verifier rejection, a configured HitCost to charge — returns
// ok == false without touching counters or dropping entries; the caller
// is expected to fall back to a full ReadWithInfo, which owns those
// outcomes (so a rejection is still counted and dropped exactly once,
// by the fallback). The wire server probes this from its decode loop so
// warm hits skip the per-request handler dispatch entirely.
func (c *Cache) ReadSharedHit(doc, user string) (stream.Body, EntryInfo, bool) {
	if c.tab.Closed() || c.opts.HitCost > 0 {
		return stream.Body{}, EntryInfo{}, false
	}
	owner, err := c.space.ResolveOwner(doc, user)
	if err != nil {
		return stream.Body{}, EntryInfo{}, false
	}
	k := Key(doc, owner)

	var tr *obs.ReadTrace
	var t0 time.Time
	o := c.opts.Observer
	if o != nil {
		tr = &obs.ReadTrace{Doc: doc, User: user}
		t0 = time.Now()
	}
	e, data, outcome := c.probe(k, doc, owner, tr)
	if outcome != probeHit {
		return stream.Body{}, EntryInfo{}, false
	}
	info := e.hitInfo()
	if tr != nil {
		tr.Verdict = info.Verdict
		tr.Total = time.Since(t0)
		tr.Time = time.Now()
		o.ObserveRead(*tr)
	}
	return data, info, true
}

// probeOutcome is what probe found behind a key.
type probeOutcome int

const (
	probeAbsent   probeOutcome = iota // no entry
	probeRejected                     // a verifier refused it; counting and dropping are the caller's
	probeRaced                        // replaced or invalidated while its verifiers ran
	probeHit                          // verified and accounted
)

// probe is the hit path, shared by ReadSharedHit and readWithInfo: look
// k up in the table, charge HitCost, run the entry's verifiers, then
// confirm the entry is still installed and account the hit (counter,
// replacement policy, CacheWithEvents forward). data aliases the
// immutable blobs and is set only on probeHit; e is set on every
// outcome but probeAbsent. tr, when non-nil, receives the lookup and
// verify spans.
func (c *Cache) probe(k, doc, owner string, tr *obs.ReadTrace) (e *Entry, data stream.Body, outcome probeOutcome) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	e, data = c.tab.Lookup(k)
	if tr != nil {
		tr.Lookup = time.Since(t0)
	}
	if e == nil {
		return nil, stream.Body{}, probeAbsent
	}
	if c.opts.HitCost > 0 {
		c.clk.Sleep(c.opts.HitCost)
	}
	if !c.opts.DisableVerifiers {
		if tr != nil {
			t0 = time.Now()
		}
		valid := e.Valid(c.clk.Now())
		if tr != nil {
			tr.Verify = time.Since(t0)
		}
		if !valid {
			return e, stream.Body{}, probeRejected
		}
	}
	// The entry may have been invalidated while verifying.
	if !c.tab.Confirm(k, e) {
		return e, stream.Body{}, probeRaced
	}
	c.stats.hits.Add(1)
	if e.Cacheability == property.CacheWithEvents {
		c.forward(doc, owner, event.GetInputStream)
	}
	return e, data, probeHit
}

// hitInfo is the metadata a hit on e reports.
func (e *Entry) hitInfo() EntryInfo {
	return EntryInfo{Cacheability: e.Cacheability, Cost: e.Cost, Expiry: property.EarliestTTL(e.Verifiers), Verdict: obs.VerdictHit, Signature: e.Signature}
}

// readWithInfo is the read path proper. tr is the per-read trace
// being assembled, or nil when no Observer is attached — every timing
// site is gated on it so the uninstrumented path pays nothing.
func (c *Cache) readWithInfo(doc, user string, tr *obs.ReadTrace) (stream.Body, EntryInfo, error) {
	if c.tab.Closed() {
		return stream.Body{}, EntryInfo{}, ErrClosed
	}
	owner, err := c.space.ResolveOwner(doc, user)
	if err != nil {
		return stream.Body{}, EntryInfo{}, err
	}
	user = owner

	if c.tab.Closed() {
		return stream.Body{}, EntryInfo{}, ErrClosed
	}
	k := Key(doc, user)

	switch e, data, outcome := c.probe(k, doc, user, tr); outcome {
	case probeHit:
		return data, e.hitInfo(), nil
	case probeRejected:
		c.stats.verifierRejects.Add(1)
		c.tab.DropIf(k, e)
		// The pull-side of paper cause 4: the entry died because a
		// verifier caught a change notifiers could not see.
		c.recordCause(doc, obs.CauseVerifier)
	}

	return c.coalescedMiss(k, doc, user, tr)
}

// forward redelivers an operation event for a CacheWithEvents entry.
func (c *Cache) forward(doc, user string, kind event.Kind) {
	if err := c.space.ForwardEvent(doc, user, kind); err == nil {
		c.stats.eventsForwarded.Add(1)
	}
}

// coalescedMiss funnels a miss through the table's single-flight
// protocol: the leader executes the read path and publishes the result;
// followers block and share it. Prefetching happens after the flight
// resolves so a collection that (transitively) references the document
// being read can never re-enter its own flight.
func (c *Cache) coalescedMiss(k, doc, user string, tr *obs.ReadTrace) (stream.Body, EntryInfo, error) {
	var related []string
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	data, info, shared, err := c.tab.Do(k, c.missFunc(doc, user, tr, &related))
	if shared {
		if tr != nil {
			tr.FlightWait = time.Since(t0)
			tr.Coalesced = true
		}
		c.stats.coalesced.Add(1)
		if err != nil {
			return stream.Body{}, EntryInfo{}, err
		}
		info.Verdict = obs.VerdictCoalesced
		return data, info, nil
	}
	if err == nil && !c.opts.DisablePrefetch {
		c.prefetch(user, related)
	}
	return data, info, err
}

// missFunc is miss in the shape a flight leads, with the
// related-document hints delivered to *related.
func (c *Cache) missFunc(doc, user string, tr *obs.ReadTrace, related *[]string) func() (stream.Body, EntryInfo, error) {
	return func() (data stream.Body, info EntryInfo, err error) {
		data, info, *related, err = c.miss(doc, user, tr)
		return data, info, err
	}
}

// miss executes the full read path and caches the result according to
// its cacheability indicator, returning the related-document hints for
// the caller to prefetch (nil unless an entry was installed). Installed
// bytes come back as the table holds them; bytes it did not install,
// as the read path produced them.
func (c *Cache) miss(doc, user string, tr *obs.ReadTrace) (body stream.Body, info EntryInfo, related []string, err error) {
	// Notifiers first, then the generation snapshot, then the read —
	// the order remote.miss uses (subscribe, then fetch). Registered
	// any later, a change landing before the registration on a key's
	// first miss would bump no generation and be pushed to no one. A
	// failure means the document or the reference does not exist; the
	// read below reports that, and the key's next miss retries.
	if !c.opts.DisableNotifiers {
		_ = c.notifiers.Ensure(doc, user)
	}

	// Snapshot the document's invalidation generation: if a
	// notification arrives while the read path is executing, the
	// result may already be stale and must not be cached (the
	// callback race between load and install).
	gen := c.tab.Gen(doc)

	// Durable tier first: a revalidated disk entry costs a source probe
	// and a blob read instead of the whole transform chain.
	if c.opts.Store != nil {
		if body, info, ok := c.promote(doc, user, gen, tr); ok {
			return body, info, nil, nil
		}
	}

	// Memoize decides only whether the read is offered a store for its
	// cuts; the read itself has one shape either way.
	var cuts *readCuts
	var memo docspace.PrefixIntermediates
	if c.opts.Memoize {
		cuts = &readCuts{c: c}
		memo = cuts
	}
	body, res, trace, err := c.space.ReadDocumentStaged(doc, user, memo)
	if trace.MemoErr {
		c.stats.prefixFallbackErrors.Add(1)
	}
	if tr != nil {
		tr.BitFetch = trace.BitFetchDur
		tr.Universal = trace.UniversalDur
		tr.Personal = trace.PersonalDur
		if trace.Cuts > 0 {
			tr.PrefixCuts = trace.Cuts
			tr.PrefixDepth = trace.DeepestHit
		}
	}
	if err != nil {
		return stream.Body{}, EntryInfo{}, nil, err
	}
	info = EntryInfo{Cacheability: res.Cacheability, Cost: res.Cost, Expiry: property.EarliestTTL(res.Verifiers), Verdict: obs.VerdictMiss}
	if trace.Hit {
		info.Verdict = obs.VerdictMemo
	}
	if len(body.Tail) > 0 {
		// The body is the last cut's blob, in its parts, held under
		// that cut's signature whether or not the entry goes in: a
		// caller never hashes half of it.
		info.Signature = cuts.lastSig
	}
	c.stats.misses.Add(1)
	if c.tab.Closed() {
		return body, info, nil, nil
	}
	if res.Cacheability == property.Uncacheable {
		c.stats.uncacheable.Add(1)
		return body, info, nil, nil
	}
	if c.tab.Gen(doc) != gen {
		// Invalidated mid-read: serve the data but do not install a
		// potentially stale entry (and charge no fill cost, since
		// nothing is filled).
		return body, info, nil, nil
	}

	if c.opts.FillCost > 0 {
		// Charged outside every lock: on a virtual clock, Sleep can
		// synchronously fire timers whose writes' notifier callbacks
		// re-enter the entry table.
		c.clk.Sleep(c.opts.FillCost)
	}
	s := info.Signature
	if s.IsZero() {
		s = cuts.sign(body.Head) // a whole body; hashing stays outside the shard lock
	}
	// The definitive staleness check is Install's, atomic with the
	// install under the stripe lock.
	e := &Entry{
		Doc: doc, User: user,
		Signature:    s,
		Cost:         res.Cost,
		Cacheability: res.Cacheability,
		Verifiers:    res.Verifiers,
	}
	if !c.tab.Install(Key(doc, user), e, body, gen, body.HeadSig) {
		return body, info, nil, nil
	}
	info.Signature = s
	// Write-behind demotion at install time, not at eviction: a warm
	// restart must recover the cache as it was, including entries that
	// were never evicted. All store calls run outside cache locks.
	// The installed bytes are what every later hit serves and what the
	// record names: the staged read may hand a computed view back whole
	// although its entry shares the last cut's tail-shared blob, whose
	// head the record must name for a promote to keep it once.
	body = e.blob.body()
	c.demoteEntry(doc, user, s, body, res, trace.Key, gen)
	return body, info, res.Related, nil
}

// prefetch warms the cache with the user's views of related documents.
// Already-cached members, in-flight members, and failures are skipped
// silently; prefetch misses never recurse.
func (c *Cache) prefetch(user string, related []string) {
	for _, doc := range related {
		c.prefetchKey(doc, user, true)
	}
}

// Warm re-derives user's view of doc after a write through the wire
// server has been acknowledged, so the document's shared prefix is
// resident again before the next reader needs it (DESIGN.md §7, "A
// write leaves its shared prefix warm"). It does nothing unless the
// content write that last invalidated doc dropped a resident universal
// cut under Options.Memoize; it consumes that mark. It is not a read:
// no trace, no read metrics, no hit or verdict. It counts in
// Stats.Prefetches and, running the miss path, in the miss path's own
// counters (Misses, UniversalStageRuns, …). The usual generation guard
// applies, so a write landing while it runs strands its bytes instead
// of installing them.
func (c *Cache) Warm(doc, user string) {
	if c.tab.Closed() {
		return
	}
	if _, ok := c.stranded.LoadAndDelete(doc); !ok {
		return
	}
	owner, err := c.space.ResolveOwner(doc, user)
	if err != nil {
		return
	}
	c.prefetchKey(doc, owner, false)
}

// prefetchKey is the body of both prefetches: load (doc, user) by
// leading its miss without a trace, unless the entry is resident or a
// flight already covers it — which collection prefetch waits out (wait)
// and a warm leaves to run.
func (c *Cache) prefetchKey(doc, user string, wait bool) {
	if c.tab.Closed() {
		return
	}
	k := Key(doc, user)
	_, f, leader := c.tab.join(k, true)
	if !leader { // resident (no flight), or another goroutine leads
		if f != nil && wait {
			<-f.done
		}
		return
	}
	var related []string // a prefetch does not prefetch in turn
	if _, _, err := c.tab.lead(k, f, c.missFunc(doc, user, nil, &related)); err == nil {
		c.stats.prefetches.Add(1)
	}
}
