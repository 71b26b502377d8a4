package core

import (
	"placeless/internal/event"
	"placeless/internal/sig"
)

// invalidateDoc bumps the document's generation and drops every user's
// entry for it, and every cut computed from it, visiting the stripes
// one lock at a time. The generation bump strictly precedes the stripe
// scan: an install that read the old generation either completes before
// the scan reaches its stripe (and is dropped by it) or observes the
// bump under its stripe lock and aborts — no stale entry can survive.
// The cuts are merely stranded (the invalidating change moved their
// source signature or fingerprint); dropping them here reclaims their
// bytes now instead of when the policy ages them out. It reports
// whether a universal cut (one every user's read starts from) was among
// them.
func (c *Cache) invalidateDoc(doc string) (sharedCut bool) {
	c.appendEpoch(doc, c.docGen(doc).Add(1))
	c.dropWhere(func(e *entry) bool {
		if e.doc != doc {
			return false
		}
		sharedCut = sharedCut || e.cut && e.user == ""
		return true
	})
	return sharedCut
}

// dropWhere drops every entry and cut match accepts, one stripe at a
// time. Invalidations counts the (doc, user) entries among them.
func (c *Cache) dropWhere(match func(*entry) bool) {
	c.idx.each(func(sh *shard) {
		for k, e := range sh.entries {
			if match(e) && c.dropShardLocked(sh, k) && !e.cut {
				c.stats.invalidations.Add(1)
			}
		}
	})
}

// onBaseEvent handles notifications from a base-document notifier:
// anything that changes content for every user invalidates all of the
// document's entries. A content write that strands the document's
// shared prefix marks the document for Warm: a write followed by reads
// is the one relation a warm bets on, and property changes are not it.
// (Without Options.Memoize there are no cuts, so no mark.)
func (c *Cache) onBaseEvent(e event.Event) {
	c.stats.notifications.Add(1)
	c.observeInvalidation(e)
	if c.invalidateDoc(e.Doc) && e.Kind == event.ContentWritten {
		c.docState(e.Doc).stranded.Store(true)
	}
}

// onRefEvent handles notifications from a reference notifier: personal
// property changes invalidate only that user's entry.
func (c *Cache) onRefEvent(e event.Event) {
	c.stats.notifications.Add(1)
	c.observeInvalidation(e)
	c.invalidateUser(e.Doc, e.User)
}

// observeInvalidation counts a notifier-driven invalidation under its
// paper cause and remembers the cause for subsequent miss attribution.
func (c *Cache) observeInvalidation(e event.Event) {
	o := c.opts.Observer
	if o == nil {
		return
	}
	cause := causeOf(e)
	o.Invalidation(cause)
	c.lastCause.Store(e.Doc, cause)
}

// invalidateUser bumps the generation and drops one (doc, user) entry,
// plus the personal cuts that user installed (a personal change moves
// the personal prefix fingerprints, stranding those keys). Universal-
// prefix cuts (user == "") survive: a personal-property change cannot
// affect universal-stage output.
func (c *Cache) invalidateUser(doc, user string) {
	c.appendEpoch(doc, c.docGen(doc).Add(1))
	k := key(doc, user)
	sh := c.idx.shardFor(k)
	sh.mu.Lock()
	if c.dropShardLocked(sh, k) {
		c.stats.invalidations.Add(1)
	}
	sh.mu.Unlock()
	if c.opts.Memoize && user != "" {
		// Cuts hash by (source, fingerprint), not by document, so
		// finding this user's takes a scan.
		c.dropWhere(func(e *entry) bool { return e.cut && e.doc == doc && e.user == user })
	}
}

// Invalidate drops the entry for (doc, user), if any. It is the
// programmatic equivalent of a reference-notifier invalidation.
func (c *Cache) Invalidate(doc, user string) {
	c.invalidateUser(doc, user)
}

// InvalidateDoc drops all entries for doc across users.
func (c *Cache) InvalidateDoc(doc string) {
	c.invalidateDoc(doc)
}

// Close flushes write-back state, detaches every notifier the cache
// installed, and rejects further use. It does not close an attached
// durable store — the store's lifetime belongs to whoever opened it.
func (c *Cache) Close() error {
	if err := c.Flush(); err != nil {
		return err
	}
	c.shutdown()
	return nil
}

// Kill simulates a process crash: it tears the cache down like Close
// but without flushing, so buffered write-back content is lost exactly
// as it would be when the process dies. Notifiers are still detached —
// a dead process's notifier closures cannot keep firing into the
// space — which models the attachment cleanup a restarting cache would
// perform on its stale machinery. The attached durable store keeps
// whatever reached it before the kill; the caller closes (or just
// reopens) it to model the disk surviving the crash.
func (c *Cache) Kill() {
	c.shutdown()
}

// shutdown is the common teardown: mark closed, clear all in-memory
// state, detach notifiers.
func (c *Cache) shutdown() {
	if c.closed.Swap(true) {
		return
	}
	// Clear the stripes; in-flight misses observe the closed flag
	// under their stripe lock before installing, so nothing leaks in
	// after the sweep.
	c.idx.each(func(sh *shard) {
		sh.entries = make(map[string]*entry)
		sh.cuts = 0
	})
	c.blobMu.Lock()
	c.blobs = make(map[sig.Signature]*blob)
	c.blobMu.Unlock()
	c.stats.bytesStored.Store(0)
	c.stats.bytesLogical.Store(0)
	c.stats.sharedEntries.Store(0)
	c.stats.intermediateEntries.Store(0)
	c.stats.intermediateBytes.Store(0)
	c.notifiers.Close()
}
