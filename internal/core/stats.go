package core

import "sync/atomic"

// statsCounters is the cache's live bookkeeping: every field is a
// lock-free atomic counter, so the hot hit path records activity
// without serializing behind any cache lock and Stats() never blocks
// readers. Charged-byte, shared-entry, cut and eviction gauges are the
// table's own (tableCounters) and resident bytes its blob store's, all
// maintained incrementally under their locks in the same atomic
// representation, so snapshots need no lock either.
type statsCounters struct {
	hits            atomic.Int64
	misses          atomic.Int64
	coalesced       atomic.Int64
	verifierRejects atomic.Int64
	notifications   atomic.Int64
	invalidations   atomic.Int64
	uncacheable     atomic.Int64
	eventsForwarded atomic.Int64
	prefetches      atomic.Int64

	// Intermediate-memoization gauges (Options.Memoize).
	intermediateHits     atomic.Int64
	universalStageRuns   atomic.Int64
	bytesRecomputedSaved atomic.Int64

	// Prefix-pipeline counters (the N-cut generalization).
	prefixHits           atomic.Int64
	prefixSegmentRuns    atomic.Int64
	prefixInstalls       atomic.Int64
	prefixFallbackErrors atomic.Int64

	// Durable disk-tier counters (Options.Store).
	storeDemotions        atomic.Int64
	storeInterDemotions   atomic.Int64
	storePromotions       atomic.Int64
	storeInterPromotions  atomic.Int64
	storePromotionRejects atomic.Int64
	storeErrors           atomic.Int64
}

// snapshot assembles the exported Stats view. Counters are read one at
// a time, so a snapshot taken during concurrent activity is internally
// consistent per counter but not across counters — same contract as
// any monitoring scrape.
func (s *statsCounters) snapshot(tab *Table) Stats {
	t := &tab.stats
	return Stats{
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		CoalescedMisses: s.coalesced.Load(),
		VerifierRejects: s.verifierRejects.Load(),
		Notifications:   s.notifications.Load(),
		Invalidations:   s.invalidations.Load(),
		Evictions:       t.evictions.Load(),
		Uncacheable:     s.uncacheable.Load(),
		EventsForwarded: s.eventsForwarded.Load(),
		Prefetches:      s.prefetches.Load(),
		BytesStored:     t.bytesStored.Load(),
		BytesResident:   tab.blobs.BytesResident(),
		BytesLogical:    t.bytesLogical.Load(),
		SharedEntries:   t.sharedEntries.Load(),

		IntermediateHits:     s.intermediateHits.Load(),
		UniversalStageRuns:   s.universalStageRuns.Load(),
		BytesRecomputedSaved: s.bytesRecomputedSaved.Load(),
		IntermediateEntries:  t.cuts.Load(),
		IntermediateBytes:    t.cutBytes.Load(),

		PrefixHits:           s.prefixHits.Load(),
		PrefixSegmentRuns:    s.prefixSegmentRuns.Load(),
		PrefixInstalls:       s.prefixInstalls.Load(),
		PrefixFallbackErrors: s.prefixFallbackErrors.Load(),

		StoreDemotions:              s.storeDemotions.Load(),
		StoreIntermediateDemotions:  s.storeInterDemotions.Load(),
		StorePromotions:             s.storePromotions.Load(),
		StoreIntermediatePromotions: s.storeInterPromotions.Load(),
		StorePromotionRejects:       s.storePromotionRejects.Load(),
		StoreErrors:                 s.storeErrors.Load(),
	}
}
