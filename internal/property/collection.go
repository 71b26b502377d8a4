package property

import (
	"sort"
	"sync"

	"placeless/internal/event"
	"placeless/internal/stream"
)

// Collection groups related documents — the paper's §5 open question:
// "mechanisms that tailor caching for related documents (e.g.,
// contained in a collection) have not been investigated." The same
// Collection value is attached (universally) to each member; on any
// member's read path it declares the sibling members related, which a
// prefetching cache turns into warm entries before the user opens
// them.
type Collection struct {
	Base
	mu      sync.Mutex
	members map[string]bool
}

var _ Active = (*Collection)(nil)

// NewCollection returns a collection property with the given name and
// initial members.
func NewCollection(name string, members ...string) *Collection {
	c := &Collection{Base: Base{PropName: "collection:" + name}, members: make(map[string]bool)}
	for _, m := range members {
		c.Add(m)
	}
	return c
}

// Add inserts a member document id.
func (c *Collection) Add(doc string) {
	if doc == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.members[doc] = true
}

// Remove deletes a member; removing an absent member is a no-op.
func (c *Collection) Remove(doc string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.members, doc)
}

// Members lists the collection, sorted.
func (c *Collection) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.members))
	for m := range c.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Events implements Active.
func (*Collection) Events() []event.Kind { return []event.Kind{event.GetInputStream} }

// WrapInput implements Active: declares the sibling members related
// and leaves the content untouched.
func (c *Collection) WrapInput(ctx *ReadContext) stream.Transform {
	for _, m := range c.Members() {
		ctx.AddRelated(m) // AddRelated drops the document itself
	}
	return nil
}
