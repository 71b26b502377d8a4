package core

// Write stores new content for (doc, user) through the cache. Writes go
// through: the full Placeless write path runs on every write, so
// contentWritten fires, every write-path property sees the operation,
// and the cache's own notifier invalidates the affected entries.
func (c *Cache) Write(doc, user string, data []byte) error {
	if c.tab.Closed() {
		return ErrClosed
	}
	return c.space.WriteDocument(doc, user, data)
}
