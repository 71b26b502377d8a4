package core

import (
	"fmt"

	"placeless/internal/docspace"
	"placeless/internal/event"
	"placeless/internal/property"
	"placeless/internal/sig"
)

// cacheNotifier wraps property.Notifier with the machinery marker so
// document spaces classify its attachment events as cache machinery
// (other caches must not invalidate when a cache installs plumbing).
type cacheNotifier struct {
	*property.Notifier
}

// CacheMachinery marks the property as cache-installed plumbing.
func (cacheNotifier) CacheMachinery() {}

// contentAffecting is the semantic predicate for cache notifiers: only
// events that can change the content a user sees should invalidate.
// Static labels and other caches' machinery cannot.
func contentAffecting(e event.Event) bool {
	switch e.Kind {
	case event.ContentWritten, event.ReorderProperties, event.ExternalChange:
		return true
	case event.SetProperty, event.RemoveProperty, event.ModifyProperty:
		return e.Detail == docspace.ClassActive
	default:
		return false
	}
}

// installNotifiers attaches the cache's notifiers for (doc, user) if
// not yet present — the paper's miss-time behaviour: "When Eyal first
// opens the paper from MS-Word, a notifier property is attached to the
// base document to invalidate the cache if the file is opened for
// writing by another user. Another notifier at the base tracks any
// additions or deletions of active properties... At Eyal's document
// reference, a third notifier is attached to watch for active property
// additions, deletions and for changes."
//
// The dedup bookkeeping runs under notifMu; the space attachments run
// with no cache lock held, because attachment dispatches events and
// user-installed properties may react to them by re-entering the
// cache. Racing installs attaching the same notifier twice are benign
// (the registry deduplicates by property name).
func (c *Cache) installNotifiers(doc, user string) {
	if c.opts.DisableNotifiers {
		return
	}
	var todo []func() error
	c.notifMu.Lock()
	if !c.baseNotif[doc] {
		c.baseNotif[doc] = true
		name := fmt.Sprintf("notifier:%s:%s:base", c.opts.Name, doc)
		n := cacheNotifier{property.NewNotifier(name, c.onBaseEvent,
			event.ContentWritten, event.SetProperty, event.RemoveProperty,
			event.ModifyProperty, event.ReorderProperties, event.ExternalChange)}
		n.Predicate = contentAffecting
		c.notifiers[doc] = append(c.notifiers[doc], notifierSpot{doc: doc, level: docspace.Universal, name: name})
		d := doc
		todo = append(todo, func() error { return c.space.Attach(d, "", docspace.Universal, n) })
	}
	rk := key(doc, user)
	if !c.refNotif[rk] {
		c.refNotif[rk] = true
		name := fmt.Sprintf("notifier:%s:%s:%s", c.opts.Name, doc, user)
		n := cacheNotifier{property.NewNotifier(name, c.onRefEvent,
			event.SetProperty, event.RemoveProperty,
			event.ModifyProperty, event.ReorderProperties)}
		n.Predicate = contentAffecting
		c.notifiers[doc] = append(c.notifiers[doc], notifierSpot{doc: doc, user: user, level: docspace.Personal, name: name})
		d, u := doc, user
		todo = append(todo, func() error { return c.space.Attach(d, u, docspace.Personal, n) })
	}
	c.notifMu.Unlock()
	for _, fn := range todo {
		_ = fn() // duplicate attach (racing installs) is benign
	}
}

// invalidateDoc bumps the document's generation and drops every user's
// entry for it, visiting the stripes one lock at a time. The
// generation bump strictly precedes the stripe scan: an install that
// read the old generation either completes before the scan reaches its
// stripe (and is dropped by it) or observes the bump under its stripe
// lock and aborts — no stale entry can survive.
func (c *Cache) invalidateDoc(doc string) {
	c.appendEpoch(doc, c.docGen(doc).Add(1))
	c.idx.each(func(sh *shard) {
		for k, ent := range sh.entries {
			if ent.doc == doc {
				if c.dropShardLocked(sh, k) {
					c.stats.invalidations.Add(1)
				}
			}
		}
	})
	// The invalidating change also stranded any memoized
	// universal-stage outputs for this document (their source
	// signature or fingerprint no longer matches); reclaim them now.
	c.sweepIntermediates(doc)
}

// onBaseEvent handles notifications from a base-document notifier:
// anything that changes content for every user invalidates all of the
// document's entries.
func (c *Cache) onBaseEvent(e event.Event) {
	c.stats.notifications.Add(1)
	c.observeInvalidation(e)
	c.invalidateDoc(e.Doc)
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
// plus the personal-cut intermediates that user installed (a personal
// change moves the personal prefix fingerprints, stranding those
// keys). Universal-prefix intermediates survive: a personal-property
// change cannot affect universal-stage output.
func (c *Cache) invalidateUser(doc, user string) {
	c.appendEpoch(doc, c.docGen(doc).Add(1))
	k := key(doc, user)
	sh := c.idx.shardFor(k)
	sh.mu.Lock()
	if c.dropShardLocked(sh, k) {
		c.stats.invalidations.Add(1)
	}
	sh.mu.Unlock()
	c.sweepUserIntermediates(doc, user)
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
	c.notifMu.Lock()
	spots := make([]notifierSpot, 0)
	for _, list := range c.notifiers {
		spots = append(spots, list...)
	}
	c.notifiers = make(map[string][]notifierSpot)
	c.notifMu.Unlock()
	// Clear the stripes; in-flight misses observe the closed flag
	// under their stripe lock before installing, so nothing leaks in
	// after the sweep.
	c.idx.each(func(sh *shard) {
		sh.entries = make(map[string]*entry)
	})
	c.blobMu.Lock()
	c.blobs = make(map[sig.Signature]*blob)
	c.blobMu.Unlock()
	c.clearIntermediates()
	c.stats.bytesStored.Store(0)
	c.stats.bytesLogical.Store(0)
	c.stats.sharedEntries.Store(0)
	for _, sp := range spots {
		_ = c.space.Detach(sp.doc, sp.user, sp.level, sp.name)
	}
}
