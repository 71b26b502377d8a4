package core

import (
	"placeless/internal/event"
	"placeless/internal/property"
)

// Write stores new content for (doc, user) through the cache.
//
// In write-through mode (the paper's default assumption) the write is
// forwarded to the Placeless system immediately: the full write path
// runs, contentWritten fires, and the cache's own notifier invalidates
// the affected entries.
//
// In write-back mode the data is buffered in the cache; the paper
// notes that write-path properties may still need to observe write
// operations, so getOutputStream events are forwarded per write while
// the content itself is deferred until Flush.
func (c *Cache) Write(doc, user string, data []byte) error {
	if c.tab.Closed() {
		return ErrClosed
	}
	if c.opts.Mode == WriteThrough {
		return c.space.WriteDocument(doc, user, data)
	}

	// Write-back: buffer the content. getOutputStream is forwarded
	// only when a write-path property registered its cacheability
	// requirement for it (paper §3) — "for most properties it is
	// likely to be sufficient if they execute on the write-back
	// operation", so the default is no per-write forwarding.
	k := Key(doc, user)
	c.writeMu.Lock()
	c.dirty[k] = &dirtyWrite{data: append([]byte{}, data...)}
	overflow := c.opts.MaxDirty > 0 && len(c.dirty) > c.opts.MaxDirty
	c.writeMu.Unlock()
	// The locally buffered write makes cached read versions of this
	// document stale for this user only after flush; conservatively
	// drop the user's read entry now so reads observe their own
	// writes once flushed.
	c.tab.drop(k)
	if c.writeVote(doc, user) >= property.CacheWithEvents {
		c.forward(doc, user, event.GetOutputStream)
	}
	if overflow {
		return c.Flush()
	}
	return nil
}

// writeVote returns the aggregate write-path cacheability vote for
// (doc, user), queried fresh each time so property changes are always
// respected (the query is pure vote collection, no content moves).
func (c *Cache) writeVote(doc, user string) property.Cacheability {
	vote, err := c.space.WritePathVote(doc, user)
	if err != nil {
		return property.Unrestricted
	}
	return vote
}

// Dirty reports how many write-back entries await flushing.
func (c *Cache) Dirty() int {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return len(c.dirty)
}

// DirtyFor reports whether (doc, user) has a buffered write-back write
// that has not been flushed. The simulation oracle uses it to resolve
// which side of a Flush/Write race a buffered write landed on.
func (c *Cache) DirtyFor(doc, user string) bool {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	_, ok := c.dirty[Key(doc, user)]
	return ok
}

// Flush pushes all buffered write-back content through the Placeless
// write path. The first error aborts the flush; already-flushed
// entries stay flushed.
//
// Lock ordering: the dirty set is snapshotted under writeMu, and every
// WriteDocument runs with no cache lock held — the write path
// dispatches contentWritten, whose notifier callback re-enters the
// entry table (shard locks). A flush triggered mid-invalidate (or an
// invalidate landing mid-flush) therefore interleaves freely instead
// of deadlocking; the dedicated interleaving test provokes exactly
// that schedule on the virtual clock.
//
// Two guards keep a Write racing a Flush from being lost (found by the
// simulation harness's stale-read oracle):
//   - flushMu serializes whole flush runs, so a flush carrying an older
//     snapshot can never store on top of a newer one;
//   - the dirty entry is removed only if it is still the exact buffer
//     the snapshot captured — a Write that replaced it mid-flush stays
//     buffered for the next cycle instead of being silently dropped.
func (c *Cache) Flush() error {
	type pending struct {
		doc, user string
		w         *dirtyWrite
	}
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	c.writeMu.Lock()
	var todo []pending
	for k, w := range c.dirty {
		doc, user := splitKey(k)
		todo = append(todo, pending{doc: doc, user: user, w: w})
	}
	c.writeMu.Unlock()

	for _, p := range todo {
		if err := c.space.WriteDocument(p.doc, p.user, p.w.data); err != nil {
			return err
		}
		c.writeMu.Lock()
		if cur := c.dirty[Key(p.doc, p.user)]; cur == p.w {
			delete(c.dirty, Key(p.doc, p.user))
		}
		c.writeMu.Unlock()
		c.stats.flushes.Add(1)
	}
	return nil
}

// splitKey is the inverse of Key.
func splitKey(k string) (doc, user string) {
	for i := 0; i < len(k); i++ {
		if k[i] == 0 {
			return k[:i], k[i+1:]
		}
	}
	return k, ""
}
