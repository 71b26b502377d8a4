// Package core implements the Placeless document-content cache: the
// caching architecture that is the paper's contribution.
//
// The cache sits between applications and the Placeless middleware
// (the paper's application-level cache, co-located with the
// application). Entries are identified by (document, user) because
// active properties personalize content per user; identical content is
// stored once via content signatures. Consistency is maintained by two
// mechanisms: notifiers — active properties the cache installs on base
// documents and references, which push invalidations for changes under
// Placeless control — and verifiers — code returned with the content
// and executed on every hit, which catch changes outside Placeless
// control. Cacheability indicators aggregated along the read path
// decide whether content may be cached and whether operation events
// must still be forwarded. Replacement is cost-aware (Greedy-Dual-Size
// by default), driven by the replacement cost the read path
// accumulates.
//
// Concurrency: the (document, user) index is partitioned into
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
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"placeless/internal/clock"
	"placeless/internal/docspace"
	"placeless/internal/event"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/replace"
	"placeless/internal/sig"
	"placeless/internal/store"
)

// ErrClosed is returned by operations on a closed cache.
var ErrClosed = errors.New("core: cache is closed")

// WriteMode selects how writes interact with the cache.
type WriteMode int

const (
	// WriteThrough forwards every write to the Placeless system
	// immediately (the paper's default assumption).
	WriteThrough WriteMode = iota
	// WriteBack buffers writes in the cache and flushes on demand;
	// write-path properties whose cacheability vote demands it still
	// get getOutputStream events forwarded per write.
	WriteBack
)

// String names the mode.
func (m WriteMode) String() string {
	if m == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// Options configures a Cache.
type Options struct {
	// Name identifies the cache in notifier property names; caches
	// sharing a space must use distinct names.
	Name string
	// Capacity is the content budget in bytes (unique bytes stored,
	// after signature sharing). Zero means unlimited.
	Capacity int64
	// Policy supplies the replacement policy; nil defaults to
	// Greedy-Dual-Size.
	Policy replace.Policy
	// Shards overrides the number of index stripes. Zero selects the
	// GOMAXPROCS-scaled default; other values round up to a power of
	// two. Shards = 1 degenerates to a single-lock index, which the
	// parallel benchmarks use as the pre-sharding baseline.
	Shards int
	// HitCost is the simulated local access time charged on a cache
	// hit (the cost of the cache lookup itself), before verifier
	// execution.
	HitCost time.Duration
	// FillCost is the simulated overhead of installing notifiers and
	// storing an entry on a miss.
	FillCost time.Duration
	// Mode selects write-through (default) or write-back.
	Mode WriteMode
	// FlushEvery, in write-back mode, flushes dirty content on this
	// period (like the end-of-day replication property, via the
	// space's timer clock). Zero disables automatic flushing.
	FlushEvery time.Duration
	// MaxDirty, in write-back mode, bounds the number of buffered
	// writes: exceeding it triggers an immediate flush. Zero means
	// unbounded (flush only on demand or on the timer).
	MaxDirty int
	// DisableNotifiers suppresses notifier installation (verifier-
	// only consistency), for experiment E1.
	DisableNotifiers bool
	// DisablePrefetch turns off related-document prefetching (the
	// collection-property hint), for experiment E8's ablation.
	DisablePrefetch bool
	// CostSource selects what feeds the replacement policy's cost
	// input, for experiment E9's ablation of the paper's design
	// choice to accumulate property execution times.
	CostSource CostSource
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
	// lifetime belongs to the caller: close it after Close (or Kill)
	// returns. One Store serves one cache at a time.
	Store *store.Store
}

// CostSource selects the replacement-cost signal handed to the policy.
type CostSource int

const (
	// CostFull uses the read path's accumulated cost — retrieval plus
	// property execution times (the paper's design).
	CostFull CostSource = iota
	// CostConstant feeds the policy a fixed cost, reducing GDS to a
	// size/recency policy; the ablation baseline.
	CostConstant
)

// String names the source.
func (c CostSource) String() string {
	if c == CostConstant {
		return "constant"
	}
	return "full"
}

// entry is one record of the index: a cached (document, user) version,
// or — cut set — a memoized prefix output (intermediate.go). A cut
// keeps doc so a document-wide invalidation drops it in the same scan;
// its user is set only for cuts inside the personal chain (empty for
// universal-prefix cuts), so a per-user invalidation can drop that
// user's personal cuts. A personal cut shared by users with identical
// chain prefixes is tagged with whoever installed it — dropping it on
// that user's invalidation merely costs the others a recompute. A cut
// carries no cacheability or verifiers: its key implies its bytes.
type entry struct {
	doc, user    string
	cut          bool
	signature    sig.Signature
	size         int64
	cost         time.Duration
	cacheability property.Cacheability
	verifiers    []property.Verifier
}

// blob is signature-shared content storage. refs counts every holder
// (entries and cuts); entryRefs counts only (doc, user) entries,
// because the SharedEntries gauge is defined over entries and a cut
// aliasing an entry's bytes must not distort it.
type blob struct {
	data      []byte
	crc32c    uint32 // CRC-32C of data, computed once at intern time
	refs      int
	entryRefs int
}

// castagnoliTable is the CRC-32C table used to stamp blobs at intern
// time. The wire server combines the stored value into frame trailers
// so warm hits never re-scan the body.
var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// dirtyWrite is a buffered write-back entry.
type dirtyWrite struct {
	data []byte
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
	// BytesStored is the current unique content footprint.
	BytesStored int64
	// BytesLogical is the current sum of entry sizes before signature
	// sharing.
	BytesLogical int64
	// SharedEntries counts current entries whose blob is shared with
	// at least one other entry.
	SharedEntries int64
	// Flushes counts write-back flush operations.
	Flushes int64
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
	opts  Options // immutable after New (Capacity lives in capacity)

	closed   atomic.Bool
	capacity atomic.Int64

	// idx stripes the one key → entry index — (doc, user) entries and
	// memoized prefix cuts alike — and the single-flight table; each
	// stripe has its own lock.
	idx *shardedIndex

	// policy decides eviction order. It stays global — Greedy-Dual-
	// Size's aging value L must see every entry to keep eviction
	// globally cost-aware — but behind its own leaf lock, so lookups
	// on other keys never wait on it.
	policyMu sync.Mutex
	policy   replace.Policy

	// blobs is the signature-shared content store, with incremental
	// byte/shared accounting (sharedDelta).
	blobMu sync.Mutex
	blobs  map[sig.Signature]*blob

	// gens carries per-document invalidation generations — the guard
	// against installing a result that went stale mid-read — as
	// lock-free atomics (doc → *docState). A mutex-protected map
	// here was locked three times per miss, the last global hot lock
	// on the fill path. The install-race invariant survives the move
	// to atomics: an invalidation bumps the generation before it
	// scans the stripes, so an installer holding its stripe lock
	// either finished before the scan reached it (and is dropped) or
	// acquired the stripe after the scan did, in which case the
	// stripe mutex carries a happens-before edge from the bump and
	// the installer's atomic load observes it.
	gens sync.Map

	// lastCause remembers, per document, the most recent invalidation
	// cause (doc → string, obs.Cause* vocabulary) so the next miss can
	// attribute itself. Only populated when an Observer is attached.
	lastCause sync.Map

	// dirty buffers write-back content. flushMu serializes whole Flush
	// runs (timer-driven and explicit) so an older snapshot can never
	// land in the repository after a newer one; it is taken before
	// writeMu and never held by Write itself.
	writeMu sync.Mutex
	flushMu sync.Mutex
	dirty   map[string]*dirtyWrite

	// notifiers is the cache's notifier pair on the space, attached
	// per (document, user) at miss time and detached on Close.
	notifiers *docspace.NotifierPair

	stats statsCounters
}

// key builds the (document, user) entry identifier. The paper: "Our
// current implementation tags content with both a document identifier
// and the user to whom the version of the document belongs."
func key(doc, user string) string { return doc + "\x00" + user }

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
		space:  space,
		clk:    space.Clock(),
		opts:   opts,
		idx:    newShardedIndex(opts.Shards),
		policy: policy,
		blobs:  make(map[sig.Signature]*blob),
		dirty:  make(map[string]*dirtyWrite),
	}
	c.notifiers = docspace.NewNotifierPair(space, "notifier:"+opts.Name, c.onBaseEvent, c.onRefEvent)
	c.capacity.Store(opts.Capacity)
	if opts.Store != nil {
		// Seed the invalidation-generation counters from the persisted
		// epochs, so generations recorded by this process continue the
		// sequence the previous process left on disk — an entry demoted
		// now can never be mistaken for one invalidated before boot.
		for doc, gen := range opts.Store.Epochs() {
			d := new(docState)
			d.gen.Store(gen)
			c.gens.Store(doc, d)
		}
	}
	if opts.Observer != nil {
		c.registerMetrics(opts.Observer)
	}
	if opts.Mode == WriteBack && opts.FlushEvery > 0 {
		c.armFlushTimer()
	}
	return c
}

// armFlushTimer schedules the next periodic write-back flush.
func (c *Cache) armFlushTimer() {
	c.space.Clock().AfterFunc(c.opts.FlushEvery, func(time.Time) {
		if c.closed.Load() {
			return
		}
		_ = c.Flush() // flush errors leave entries dirty for the next cycle
		c.armFlushTimer()
	})
}

// Resize changes the capacity budget at runtime and evicts immediately
// if the cache is now over budget. capacity <= 0 means unlimited.
func (c *Cache) Resize(capacity int64) {
	c.capacity.Store(capacity)
	c.evict("")
}

// Capacity returns the current byte budget (0 = unlimited).
func (c *Cache) Capacity() int64 { return c.capacity.Load() }

// Policy returns the replacement policy's name.
func (c *Cache) Policy() string { return c.policy.Name() }

// Memoizing reports whether universal-stage memoization is enabled.
func (c *Cache) Memoizing() bool { return c.opts.Memoize }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats.snapshot() }

// Len reports how many (document, user) entries are cached.
func (c *Cache) Len() int { return c.idx.count() }

// Contains reports whether a valid entry exists for (doc, user)
// without running verifiers or charging time.
func (c *Cache) Contains(doc, user string) bool {
	k := key(doc, user)
	sh := c.idx.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.entries[k]
	return ok
}

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
	// Hit reports whether this read was served from the cache.
	// Coalesced misses (reads that received another goroutine's
	// read-path result) report false.
	Hit bool
	// IntermediateHit reports, for misses under Options.Memoize, that
	// the universal stage was served memoized and only the personal
	// suffix executed. Always false on hits and coalesced misses.
	IntermediateHit bool
	// DiskPromoted reports that this miss was served by promoting a
	// revalidated entry from the durable disk tier — no transform ran.
	DiskPromoted bool
	// Signature is the content signature of the returned bytes, set
	// when the result is held in (or was just installed into / promoted
	// from) the signature-addressed blob tier; zero otherwise. The wire
	// server uses it to stream large bodies straight from the durable
	// store instead of the heap copy.
	Signature sig.Signature
	// BodyCRC32C is the CRC-32C of the returned bytes, valid only when
	// BodyCRCOK is set (CRC zero is a legal checksum). It is the blob
	// tier's intern-time checksum; the wire server folds it into frame
	// trailers instead of re-scanning the body per response.
	BodyCRC32C uint32
	BodyCRCOK  bool
}

// Read returns the document content as seen by user, serving from the
// cache when possible. On a hit every verifier attached to the entry
// runs; any failure discards the entry and re-executes the read path.
//
// Accesses are keyed by the reference they resolve to: a user reading
// through a group-owned reference shares the group's cache entry,
// since every member sees the identical property chain.
func (c *Cache) Read(doc, user string) ([]byte, error) {
	data, _, err := c.ReadWithInfo(doc, user)
	return data, err
}

// ReadWithInfo is Read plus the entry metadata a layered cache needs.
// With an Observer attached it also records the read: verdict and
// miss-cause counters, per-stage latency histograms, and a ReadTrace
// in the ring buffer.
func (c *Cache) ReadWithInfo(doc, user string) ([]byte, EntryInfo, error) {
	o := c.opts.Observer
	if o == nil {
		return c.readWithInfo(doc, user, nil)
	}
	tr := &obs.ReadTrace{Doc: doc, User: user}
	t0 := time.Now()
	data, info, err := c.readWithInfo(doc, user, tr)
	tr.Total = time.Since(t0)
	tr.Time = time.Now()
	switch {
	case err != nil:
		tr.Verdict = obs.VerdictError
		tr.Err = err.Error()
	case info.Hit:
		tr.Verdict = obs.VerdictHit
	case tr.Coalesced:
		tr.Verdict = obs.VerdictCoalesced
	case info.DiskPromoted:
		tr.Verdict = obs.VerdictDisk
	case info.IntermediateHit:
		tr.Verdict = obs.VerdictMemo
	default:
		tr.Verdict = obs.VerdictMiss
	}
	switch tr.Verdict {
	case obs.VerdictMiss, obs.VerdictMemo:
		tr.Cause = c.missCause(doc)
	}
	o.ObserveRead(*tr)
	return data, info, err
}

// ReadSharedHit serves a clean cache hit without the defensive copy —
// the returned bytes alias the cache's internal blob storage, which is
// immutable after creation, so the caller MUST treat them as read-only
// — and without ever blocking on the read path: ok reports
// whether an entry was present and passed its verifiers. Every other
// outcome — miss, verifier rejection, a configured HitCost to charge —
// returns ok == false without touching counters or dropping entries;
// the caller is expected to fall back to a full ReadWithInfo, which
// owns those outcomes (so a rejection is still counted and dropped
// exactly once, by the fallback). The wire server
// probes this from its decode loop so warm hits skip the per-request
// handler dispatch entirely.
func (c *Cache) ReadSharedHit(doc, user string) ([]byte, EntryInfo, bool) {
	if c.closed.Load() || c.opts.HitCost > 0 {
		return nil, EntryInfo{}, false
	}
	owner, err := c.space.ResolveOwner(doc, user)
	if err != nil {
		return nil, EntryInfo{}, false
	}
	k := key(doc, owner)

	var tr *obs.ReadTrace
	var t0 time.Time
	o := c.opts.Observer
	if o != nil {
		tr = &obs.ReadTrace{Doc: doc, User: user, Verdict: obs.VerdictHit}
		t0 = time.Now()
	}
	e, data, bodyCRC, outcome := c.probe(c.idx.shardFor(k), k, doc, owner, tr)
	if outcome != probeHit {
		return nil, EntryInfo{}, false
	}
	if tr != nil {
		tr.Total = time.Since(t0)
		tr.Time = time.Now()
		o.ObserveRead(*tr)
	}
	info := e.hitInfo()
	info.BodyCRC32C, info.BodyCRCOK = bodyCRC, true
	return data, info, true
}

// probeOutcome is what probe found behind a key.
type probeOutcome int

const (
	probeAbsent   probeOutcome = iota // no entry, or its blob is gone
	probeRejected                     // a verifier refused it; counting and dropping are the caller's
	probeRaced                        // replaced or invalidated while its verifiers ran
	probeHit                          // verified and accounted
)

// probe is the hit path, shared by ReadSharedHit and readWithInfo: look
// k up in its shard, charge HitCost, run the entry's verifiers, then
// re-check the entry under the shard lock and account the hit (counter,
// replacement policy, CacheWithEvents forward). data aliases the
// immutable blob and crc is its intern-time CRC-32C; both are set only
// on probeHit. e is set on every outcome but probeAbsent. tr, when
// non-nil, receives the lookup and verify spans.
func (c *Cache) probe(sh *shard, k, doc, owner string, tr *obs.ReadTrace) (e *entry, data []byte, crc uint32, outcome probeOutcome) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	sh.mu.Lock()
	e = sh.entries[k]
	if e != nil {
		data, crc, _ = c.blobDataCRC(e.signature)
	}
	sh.mu.Unlock()
	if tr != nil {
		tr.Lookup = time.Since(t0)
	}
	if e == nil || data == nil {
		return nil, nil, 0, probeAbsent
	}
	if c.opts.HitCost > 0 {
		c.clk.Sleep(c.opts.HitCost)
	}
	if !c.opts.DisableVerifiers {
		if tr != nil {
			t0 = time.Now()
		}
		now := c.clk.Now()
		for _, v := range e.verifiers {
			if ok, err := v.Check(now); err != nil || !ok {
				outcome = probeRejected
				break
			}
		}
		if tr != nil {
			tr.Verify = time.Since(t0)
		}
		if outcome == probeRejected {
			return e, nil, 0, probeRejected
		}
	}
	sh.mu.Lock()
	// The entry may have been invalidated while verifying.
	if cur := sh.entries[k]; cur != e {
		sh.mu.Unlock()
		return e, nil, 0, probeRaced
	}
	c.stats.hits.Add(1)
	c.policyMu.Lock()
	c.policy.Access(k)
	c.policyMu.Unlock()
	sh.mu.Unlock()
	if e.cacheability == property.CacheWithEvents {
		c.forward(doc, owner, event.GetInputStream)
	}
	return e, data, crc, probeHit
}

// hitInfo is the metadata a hit on e reports.
func (e *entry) hitInfo() EntryInfo {
	return EntryInfo{Cacheability: e.cacheability, Cost: e.cost, Expiry: property.EarliestTTL(e.verifiers), Hit: true, Signature: e.signature}
}

// readWithInfo is the read path proper. tr is the per-read trace
// being assembled, or nil when no Observer is attached — every timing
// site is gated on it so the uninstrumented path pays nothing.
func (c *Cache) readWithInfo(doc, user string, tr *obs.ReadTrace) ([]byte, EntryInfo, error) {
	if c.closed.Load() {
		return nil, EntryInfo{}, ErrClosed
	}
	owner, err := c.space.ResolveOwner(doc, user)
	if err != nil {
		return nil, EntryInfo{}, err
	}
	user = owner

	if c.closed.Load() {
		return nil, EntryInfo{}, ErrClosed
	}
	k := key(doc, user)
	sh := c.idx.shardFor(k)

	switch e, data, _, outcome := c.probe(sh, k, doc, user, tr); outcome {
	case probeHit:
		out := make([]byte, len(data))
		copy(out, data)
		return out, e.hitInfo(), nil
	case probeRejected:
		sh.mu.Lock()
		c.stats.verifierRejects.Add(1)
		// Drop only if the rejected entry is still installed; a
		// concurrent reinstall must not lose its fresh entry.
		if cur := sh.entries[k]; cur == e {
			c.dropShardLocked(sh, k)
		}
		sh.mu.Unlock()
		// The pull-side of paper cause 4: the entry died because a
		// verifier caught a change notifiers could not see.
		c.recordCause(doc, obs.CauseVerifier)
	}

	return c.coalescedMiss(sh, k, doc, user, true, tr)
}

// forward redelivers an operation event for a CacheWithEvents entry.
func (c *Cache) forward(doc, user string, kind event.Kind) {
	if err := c.space.ForwardEvent(doc, user, kind); err == nil {
		c.stats.eventsForwarded.Add(1)
	}
}

// coalescedMiss funnels a miss through the shard's single-flight
// table: the leader executes the read path via leadMiss and publishes
// the result; followers block and share it. Prefetching happens after
// the flight resolves so a collection that (transitively) references
// the document being read can never re-enter its own flight.
func (c *Cache) coalescedMiss(sh *shard, k, doc, user string, mayPrefetch bool, tr *obs.ReadTrace) ([]byte, EntryInfo, error) {
	f, leader := joinOrLead(sh, k)
	if !leader {
		var tWait time.Time
		if tr != nil {
			tWait = time.Now()
		}
		<-f.done
		if tr != nil {
			tr.FlightWait = time.Since(tWait)
			tr.Coalesced = true
		}
		c.stats.coalesced.Add(1)
		if f.err != nil {
			return nil, EntryInfo{}, f.err
		}
		out := make([]byte, len(f.data))
		copy(out, f.data)
		return out, f.info, nil
	}
	data, info, related, err := c.leadMiss(sh, k, f, doc, user, tr)
	if err == nil && mayPrefetch && !c.opts.DisablePrefetch {
		c.prefetch(user, related)
	}
	return data, info, err
}

// leadMiss runs miss as the leader of k's flight f and publishes the
// result on it. finish is deferred: a transform that panics must still
// release the followers (with ErrReadAborted) and free the key.
func (c *Cache) leadMiss(sh *shard, k string, f *flight, doc, user string, tr *obs.ReadTrace) (data []byte, info EntryInfo, related []string, err error) {
	defer finish(sh, k, f)
	data, info, related, err = c.miss(doc, user, tr)
	f.data, f.info, f.err = data, info, err
	return data, info, related, err
}

// docState is what the cache remembers per document outside the index:
// the invalidation generation, and whether the content write that last
// bumped it dropped a resident universal cut, which Warm consumes.
type docState struct {
	gen      atomic.Uint64
	stranded atomic.Bool
}

// docState returns the document's state, creating it on first use.
// The fast path is a lock-free sync.Map load; LoadOrStore only runs on
// a document's first miss or invalidation.
func (c *Cache) docState(doc string) *docState {
	if d, ok := c.gens.Load(doc); ok {
		return d.(*docState)
	}
	d, _ := c.gens.LoadOrStore(doc, new(docState))
	return d.(*docState)
}

// docGen returns the document's invalidation-generation counter.
func (c *Cache) docGen(doc string) *atomic.Uint64 { return &c.docState(doc).gen }

// miss executes the full read path and caches the result according to
// its cacheability indicator, returning the related-document hints for
// the caller to prefetch (nil unless an entry was installed).
func (c *Cache) miss(doc, user string, tr *obs.ReadTrace) (data []byte, info EntryInfo, related []string, err error) {
	// Notifiers first, then the generation snapshot, then the read —
	// the order remote.miss uses (subscribe, then fetch). Attached any
	// later, a change landing before the attach on a key's first miss
	// would bump no generation and be pushed to no one. A failure
	// means the document or the reference does not exist; the read
	// below reports that, and the key's next miss retries the attach.
	if !c.opts.DisableNotifiers {
		_ = c.notifiers.Ensure(doc, user)
	}

	// Snapshot the document's invalidation generation: if a
	// notification arrives while the read path is executing, the
	// result may already be stale and must not be cached (the
	// callback race between load and install).
	g := c.docGen(doc)
	gen := g.Load()

	// Durable tier first: a revalidated disk entry costs one source
	// fetch instead of the whole transform chain.
	if c.opts.Store != nil {
		if data, info, ok := c.promote(doc, user, g, gen); ok {
			return data, info, nil, nil
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
	data, res, trace, err := c.space.ReadDocumentStaged(doc, user, memo)
	if trace.MemoErr {
		c.stats.prefixFallbackErrors.Add(1)
	}
	if tr != nil {
		tr.BitFetch = trace.BitFetchDur
		tr.Universal = trace.UniversalDur
		tr.Personal = trace.PersonalDur
		if trace.Attempted {
			tr.PrefixCuts = trace.Cuts
			tr.PrefixDepth = trace.DeepestHit
		}
	}
	if err != nil {
		return nil, EntryInfo{}, nil, err
	}
	info = EntryInfo{Cacheability: res.Cacheability, Cost: res.Cost, Expiry: property.EarliestTTL(res.Verifiers), IntermediateHit: trace.Hit}
	c.stats.misses.Add(1)
	if c.closed.Load() {
		return data, info, nil, nil
	}
	if res.Cacheability == property.Uncacheable {
		c.stats.uncacheable.Add(1)
		return data, info, nil, nil
	}
	if g.Load() != gen {
		// Invalidated mid-read: serve the data but do not install a
		// potentially stale entry (and charge no fill cost, since
		// nothing is filled).
		return data, info, nil, nil
	}

	if c.opts.FillCost > 0 {
		// Charged outside every lock: on a virtual clock, Sleep can
		// synchronously fire timer-driven flushes whose notifier
		// callbacks re-enter the entry table.
		c.clk.Sleep(c.opts.FillCost)
	}
	s := cuts.sign(data) // hashing stays outside the shard lock
	k := key(doc, user)
	sh := c.idx.shardFor(k)
	sh.mu.Lock()
	if c.closed.Load() {
		sh.mu.Unlock()
		return data, info, nil, nil
	}
	// Definitive staleness check, atomic with the install under the
	// shard lock: an invalidation bumps the generation before it scans
	// the shards, so either we see the bump here and abort, or the
	// scan sees our entry and drops it.
	if g.Load() != gen {
		sh.mu.Unlock()
		return data, info, nil, nil
	}
	c.installLocked(sh, k, &entry{
		doc: doc, user: user,
		signature:    s,
		cost:         res.Cost,
		cacheability: res.Cacheability,
		verifiers:    res.Verifiers,
	}, data)
	info.Signature = s
	sh.mu.Unlock()

	c.evict(k)
	// Write-behind demotion at install time, not at eviction: a warm
	// restart must recover the cache as it was, including entries that
	// were never evicted. All store calls run outside cache locks.
	c.demoteEntry(doc, user, s, data, res, trace.Key, g, gen)
	return data, info, res.Related, nil
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
	if c.closed.Load() || !c.docState(doc).stranded.Swap(false) {
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
	if c.closed.Load() {
		return
	}
	k := key(doc, user)
	sh := c.idx.shardFor(k)
	sh.mu.Lock()
	if _, cached := sh.entries[k]; cached {
		sh.mu.Unlock()
		return
	}
	f, leader := joinOrLeadLocked(sh, k)
	sh.mu.Unlock()
	if !leader {
		if wait {
			<-f.done
		}
		return
	}
	if _, _, _, err := c.leadMiss(sh, k, f, doc, user, nil); err == nil {
		c.stats.prefetches.Add(1)
	}
}

// blobDataCRC returns the stored bytes for a signature and their
// intern-time CRC-32C; ok reports whether the blob was present. Blob
// data is immutable after creation, so the slice may be read after
// blobMu is released (callers copy before handing bytes to
// applications).
func (c *Cache) blobDataCRC(s sig.Signature) (data []byte, crc uint32, ok bool) {
	c.blobMu.Lock()
	defer c.blobMu.Unlock()
	if b := c.blobs[s]; b != nil {
		return b.data, b.crc32c, true
	}
	return nil, 0, false
}

// internBlob interns data under s, its signature, and takes one
// reference, maintaining the unique-byte and shared-entry gauges
// incrementally. The caller signs — once, before it takes the shard
// lock this runs under — or passes on the signature a lower tier has
// just proved. asEntry distinguishes (doc, user) entries from cuts:
// both share storage and lifetime, but only entry references drive the
// SharedEntries gauge.
func (c *Cache) internBlob(s sig.Signature, data []byte, asEntry bool) {
	c.blobMu.Lock()
	b := c.blobs[s]
	if b == nil {
		b = &blob{data: append([]byte{}, data...), crc32c: crc32.Checksum(data, castagnoliTable)}
		c.blobs[s] = b
		c.stats.bytesStored.Add(int64(len(data)))
	}
	if asEntry {
		// SharedEntries counts entries whose blob has >1 entry
		// reference; going 1→2 makes both sharers shared, each later
		// reference adds one.
		switch {
		case b.entryRefs == 1:
			c.stats.sharedEntries.Add(2)
		case b.entryRefs >= 2:
			c.stats.sharedEntries.Add(1)
		}
		b.entryRefs++
	}
	b.refs++
	c.blobMu.Unlock()
}

// unrefBlob drops one reference, freeing the blob when the last holder
// of either kind lets go.
func (c *Cache) unrefBlob(s sig.Signature, asEntry bool) {
	c.blobMu.Lock()
	defer c.blobMu.Unlock()
	b := c.blobs[s]
	if b == nil {
		return
	}
	if asEntry {
		b.entryRefs--
		switch {
		case b.entryRefs == 1:
			c.stats.sharedEntries.Add(-2)
		case b.entryRefs >= 2:
			c.stats.sharedEntries.Add(-1)
		}
	}
	b.refs--
	if b.refs <= 0 {
		delete(c.blobs, s)
		c.stats.bytesStored.Add(-int64(len(b.data)))
	}
}

// installLocked puts e under k with data as its bytes (already signed:
// e.signature), replacing whatever k held: intern the blob, index the
// entry, account it, hand it to the policy. It is the one way a record
// of either kind enters the index. The caller holds sh.mu and has made
// its own closed and staleness checks under it.
func (c *Cache) installLocked(sh *shard, k string, e *entry, data []byte) {
	c.dropShardLocked(sh, k)
	e.size = int64(len(data))
	c.internBlob(e.signature, data, !e.cut)
	sh.entries[k] = e
	if e.cut {
		sh.cuts++
		c.stats.intermediateEntries.Add(1)
		c.stats.intermediateBytes.Add(e.size)
	} else {
		c.stats.bytesLogical.Add(e.size)
	}
	c.policyInsert(k, e)
}

// policyInsert hands k to the replacement policy at e's size and cost.
func (c *Cache) policyInsert(k string, e *entry) {
	cost := e.cost
	if c.opts.CostSource == CostConstant {
		cost = time.Millisecond
	}
	c.policyMu.Lock()
	c.policy.Insert(k, e.size, cost)
	c.policyMu.Unlock()
}

// dropShardLocked removes the entry or cut under k and releases its
// blob reference. The caller holds sh.mu; policyMu and blobMu are taken
// as nested leaf locks. Reports whether anything was present.
func (c *Cache) dropShardLocked(sh *shard, k string) bool {
	e, ok := sh.entries[k]
	if !ok {
		return false
	}
	delete(sh.entries, k)
	c.policyMu.Lock()
	c.policy.Remove(k)
	c.policyMu.Unlock()
	if e.cut {
		sh.cuts--
		c.stats.intermediateEntries.Add(-1)
		c.stats.intermediateBytes.Add(-e.size)
	} else {
		c.stats.bytesLogical.Add(-e.size)
	}
	c.unrefBlob(e.signature, !e.cut)
	return true
}

// evict enforces the capacity budget using the replacement policy.
// Entries and cuts live in the same policy, so cost-aware replacement
// weighs a memoized prefix against full entries on equal terms.
// Capacity is measured in unique stored bytes, so evicting a key
// whose blob is shared may free nothing; the loop continues until
// under budget or empty. Each round takes only the policy lock (to
// pick the globally best victim) and then that victim's shard lock —
// never a global lock and never two shard locks, so lookups on other
// stripes proceed throughout.
//
// A key with an in-flight single-flight read is pinned: a reader is
// mid-verify or mid-install on it, and evicting underneath would throw
// away bytes about to be revalidated (thrash at best). A pinned victim
// is taken out of the policy for this pass and put back afterwards if
// it survived. exempt names the one key the caller's own flight covers
// — the leader installing a fresh entry must still be able to evict
// itself when a huge insert blows the budget.
func (c *Cache) evict(exempt string) {
	capacity := c.capacity.Load()
	if capacity <= 0 {
		return
	}
	var pinned []string
	defer func() { c.reinsertPinned(pinned) }()
	for c.stats.bytesStored.Load() > capacity {
		c.policyMu.Lock()
		victim, ok := c.policy.Victim()
		c.policyMu.Unlock()
		if !ok {
			return
		}
		sh := c.idx.shardFor(victim)
		sh.mu.Lock()
		if victim != exempt && sh.flights[victim] != nil {
			// Pinned. Victim only peeks, so take the key out of the
			// policy ourselves — each pass over a pinned key shrinks
			// the policy, which keeps the loop terminating when only
			// pinned entries remain.
			c.policyMu.Lock()
			c.policy.Remove(victim)
			c.policyMu.Unlock()
			if _, present := sh.entries[victim]; present {
				pinned = append(pinned, victim)
			}
			sh.mu.Unlock()
			continue
		}
		if c.dropShardLocked(sh, victim) {
			c.stats.evictions.Add(1)
		}
		// else: a concurrent invalidation beat us to the victim (and
		// already removed it from the policy); re-check the budget.
		sh.mu.Unlock()
	}
}

// reinsertPinned puts keys skipped by evict back into the policy, but
// only when the entry is still installed — the flight that pinned a
// key may have finished and replaced (or an invalidation removed) the
// entry, and a policy key with no entry behind it would make future
// Victim calls spin on a ghost.
func (c *Cache) reinsertPinned(keys []string) {
	for _, k := range keys {
		sh := c.idx.shardFor(k)
		sh.mu.Lock()
		if e, ok := sh.entries[k]; ok {
			c.policyInsert(k, e)
		}
		sh.mu.Unlock()
	}
}
