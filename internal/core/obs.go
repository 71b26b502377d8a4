package core

import (
	"placeless/internal/event"
	"placeless/internal/obs"
)

// This file is the cache's side of the observability layer: metric
// registration under stable placeless_cache_* names, and miss-cause
// attribution mapping notifier events onto the paper's four
// invalidation causes.

// registerMetrics publishes the cache's counters on o's registry. The
// hot paths keep incrementing the same lock-free atomics they always
// did (statsCounters); the registry holds closures that read them at
// scrape time, so exposing metrics costs the read path nothing. The
// names are stable across PRs — scrapers and the CI golden list depend
// on them. One Observer serves one cache: registering a second cache
// on the same registry panics on the duplicate names.
func (c *Cache) registerMetrics(o *obs.Observer) {
	reg := o.Registry()
	reg.Counter("placeless_cache_hits_total",
		"Reads served from the cache with verifiers passing.", c.stats.hits.Load)
	reg.Counter("placeless_cache_misses_total",
		"Reads that executed the full Placeless read path.", c.stats.misses.Load)
	reg.Counter("placeless_cache_coalesced_misses_total",
		"Reads that joined another goroutine's in-flight miss (single-flight).", c.stats.coalesced.Load)
	reg.Counter("placeless_cache_verifier_rejects_total",
		"Hits discarded because a verifier reported the entry invalid.", c.stats.verifierRejects.Load)
	reg.Counter("placeless_cache_notifications_total",
		"Invalidations pushed by notifier properties.", c.stats.notifications.Load)
	reg.Counter("placeless_cache_invalidations_total",
		"Entries dropped by notifications.", c.stats.invalidations.Load)
	reg.Counter("placeless_cache_evictions_total",
		"Entries dropped by the replacement policy.", c.tab.stats.evictions.Load)
	reg.Counter("placeless_cache_uncacheable_total",
		"Reads whose result could not be cached.", c.stats.uncacheable.Load)
	reg.Counter("placeless_cache_events_forwarded_total",
		"Operation events forwarded for cache-with-events entries.", c.stats.eventsForwarded.Load)
	reg.Counter("placeless_cache_prefetches_total",
		"Views loaded ahead of a read: collection-property prefetch hints and warms after a write.", c.stats.prefetches.Load)
	reg.Gauge("placeless_cache_bytes_stored",
		"Unique content bytes charged against capacity after signature sharing, each blob at its full length.", c.tab.stats.bytesStored.Load)
	reg.Gauge("placeless_cache_bytes_logical",
		"Current sum of entry sizes before signature sharing.", c.tab.stats.bytesLogical.Load)
	reg.Gauge("placeless_cache_shared_entries",
		"Current entries whose blob is shared with at least one other entry.", c.tab.stats.sharedEntries.Load)
	reg.Gauge("placeless_cache_entries",
		"Current number of (document, user) entries.",
		func() int64 { return int64(c.tab.Len()) })
	reg.Counter("placeless_cache_intermediate_hits_total",
		"Prefix cuts served memoized instead of being re-executed.", c.stats.intermediateHits.Load)
	reg.Counter("placeless_cache_universal_stage_runs_total",
		"Actual executions of the universal property chain under memoization.", c.stats.universalStageRuns.Load)
	reg.Counter("placeless_cache_bytes_recomputed_saved_total",
		"Bytes of prefix cuts served without recomputation.", c.stats.bytesRecomputedSaved.Load)
	reg.Gauge("placeless_cache_intermediate_entries",
		"Current number of memoized prefix cuts, universal and personal.", c.tab.stats.cuts.Load)
	reg.Gauge("placeless_cache_intermediate_bytes",
		"Current logical footprint of memoized prefix cuts.", c.tab.stats.cutBytes.Load)
	reg.Counter("placeless_prefix_hits_total",
		"Longest-prefix probes that resumed a miss from a cached cut.", c.stats.prefixHits.Load)
	reg.Counter("placeless_prefix_segment_runs_total",
		"Segment executions under the N-cut prefix pipeline.", c.stats.prefixSegmentRuns.Load)
	reg.Counter("placeless_prefix_installs_total",
		"Prefix cuts admitted to the index.", c.stats.prefixInstalls.Load)
	reg.Counter("placeless_prefix_fallback_errors_total",
		"Staged reads degraded to direct execution by an intermediate-store failure.", c.stats.prefixFallbackErrors.Load)
	if st := c.opts.Store; st != nil {
		reg.Counter("placeless_store_demotions_total",
			"Entry results written behind to the durable disk tier.", c.stats.storeDemotions.Load)
		reg.Counter("placeless_store_intermediate_demotions_total",
			"Prefix cuts written to the durable disk tier.", c.stats.storeInterDemotions.Load)
		reg.Counter("placeless_store_promotions_total",
			"Misses served by revalidating and promoting a durable entry.", c.stats.storePromotions.Load)
		reg.Counter("placeless_store_intermediate_promotions_total",
			"Segment executions avoided by promoting a durable cut.", c.stats.storeInterPromotions.Load)
		reg.Counter("placeless_store_promotion_rejects_total",
			"Durable entries found but refused (key mismatch, stale epoch, bad blob).", c.stats.storePromotionRejects.Load)
		reg.Counter("placeless_store_errors_total",
			"Disk-tier I/O failures on demotion writes and epoch appends.", c.stats.storeErrors.Load)
		reg.Gauge("placeless_store_blobs",
			"Content blobs resident in the disk tier.",
			func() int64 { return int64(st.Stats().Blobs) })
		reg.Gauge("placeless_store_bytes",
			"Payload bytes resident in the disk tier's segments.",
			func() int64 { return st.Stats().BlobBytes })
		reg.Gauge("placeless_store_entries",
			"Durable (document, user) entry records currently servable.",
			func() int64 { return int64(st.Stats().Entries) })
		reg.Gauge("placeless_store_segments",
			"Segment files backing the disk tier.",
			func() int64 { return int64(st.Stats().Segments) })
	}
}

// causeOf maps a notifier event onto the paper's invalidation causes:
// content written through Placeless (cause 1), property set/remove/
// modify (cause 2), property reorder (cause 3), external change
// (cause 4).
func causeOf(e event.Event) string {
	switch e.Kind {
	case event.ContentWritten:
		return obs.CauseContentWrite
	case event.SetProperty, event.RemoveProperty, event.ModifyProperty:
		return obs.CauseProperty
	case event.ReorderProperties:
		return obs.CauseReorder
	case event.ExternalChange:
		return obs.CauseExternal
	default:
		return obs.CauseProperty
	}
}

// recordCause remembers the most recent invalidation cause for doc so
// the next miss can attribute itself. Gated on an attached Observer;
// without one the sync.Map stays empty and costs nothing.
func (c *Cache) recordCause(doc, cause string) {
	if c.opts.Observer == nil {
		return
	}
	c.lastCause.Store(doc, cause)
}

// missCause attributes a miss: the most recent invalidation cause
// recorded for the document, or cold when the entry was never
// invalidated (first access, eviction, or restart).
func (c *Cache) missCause(doc string) string {
	if v, ok := c.lastCause.Load(doc); ok {
		return v.(string)
	}
	return obs.CauseCold
}
