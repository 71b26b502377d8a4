package core

import (
	"placeless/internal/event"
)

// invalidateDoc drops every user's entry for the document and every cut
// computed from it — the table bumps the generation first, then visits
// only the document's keys, one stripe at a time, so an install that
// read the old generation either completes before the visit reaches its
// stripe (and is dropped by it) or observes the bump under its stripe
// lock and aborts. The cuts are merely stranded (the invalidating
// change moved their source signature or fingerprint); dropping them
// here reclaims their bytes now instead of when the policy ages them
// out. It reports whether a universal cut (one every user's read starts
// from) was among them.
func (c *Cache) invalidateDoc(doc string) (sharedCut bool) {
	entries, sharedCut, gen := c.tab.DropDoc(doc)
	c.stats.invalidations.Add(int64(entries))
	c.appendEpoch(doc, gen)
	return sharedCut
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
		c.stranded.Store(e.Doc, struct{}{})
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

// invalidateUser drops one (doc, user) entry, plus the personal cuts
// that user installed, generation bumped first (Table.DropUser).
func (c *Cache) invalidateUser(doc, user string) {
	entries, gen := c.tab.DropUser(doc, user)
	c.stats.invalidations.Add(int64(entries))
	c.appendEpoch(doc, gen)
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

// Close closes the table (which rejects in-flight installs and drops
// everything), unsubscribes every notifier the cache registered, and
// rejects further use. The cache buffers nothing, so closing it is also
// what a process crash does to it: the attached durable store keeps
// whatever reached it, and the caller closes (or just reopens) the
// store to model the disk surviving. Close does not close the store —
// its lifetime belongs to whoever opened it.
func (c *Cache) Close() {
	if c.tab.Close() {
		c.notifiers.Close()
	}
}
