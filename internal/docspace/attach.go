package docspace

import (
	"fmt"
	"time"

	"placeless/internal/event"
	"placeless/internal/property"
)

// PropertyClass distinguishes what kind of attachment an event
// describes; it travels in event.Event.Detail so notifiers can filter
// semantically (e.g. ignore static labels, which cannot change
// content).
const (
	// ClassActive marks events about content-capable active
	// properties.
	ClassActive = "active"
	// ClassStatic marks events about static labels.
	ClassStatic = "static"
)

// Level selects an attachment point: the base document (universal) or
// a user's reference (personal).
type Level int

const (
	// Universal properties live on the base document and are seen by
	// all users (paper §2).
	Universal Level = iota
	// Personal properties live on a reference and are seen only by
	// its owner.
	Personal
)

// String names the level.
func (l Level) String() string {
	if l == Universal {
		return "universal"
	}
	return "personal"
}

// nodeFor resolves the attachment point. user is ignored for
// Universal.
func (s *Space) nodeFor(doc, user string, level Level) (*node, *Base, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bases[doc]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrNoDocument, doc)
	}
	if level == Universal {
		return b.node, b, nil
	}
	r, ok := s.refs[doc][user]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s/%s", ErrNoReference, doc, user)
	}
	return r.node, b, nil
}

// eventContext builds the capability set handed to the active
// property named propName attached at (doc, user, level).
func (s *Space) eventContext(doc, user string, level Level, n *node, b *Base, propName string) *property.EventContext {
	return &property.EventContext{
		Doc:  doc,
		User: user,
		Now:  s.clk.Now(),
		ReadCurrent: func() ([]byte, error) {
			return b.bits.ReadCurrent()
		},
		StoreAside: func(label string, data []byte) (string, error) {
			if s.archive == nil {
				return "", ErrNoArchive
			}
			path := "/archive/" + doc + "/" + label
			if err := s.archive.Store(path, data); err != nil {
				return "", err
			}
			return s.archive.Name() + ":" + path, nil
		},
		AttachStatic: func(key, value string) {
			// Errors (duplicate label) are ignored: archiving twice
			// under one label is idempotent from the property's view.
			_ = s.AttachStatic(doc, user, Universal, property.Static{Key: key, Value: value})
		},
		ScheduleTimer: func(d time.Duration) {
			s.scheduleTimer(doc, user, n, propName, d)
		},
	}
}

// scheduleTimer arms a timer event delivered to n's registry,
// addressed to the scheduling property so other timer-driven
// properties on the node can ignore it.
func (s *Space) scheduleTimer(doc, user string, n *node, propName string, d time.Duration) {
	s.clk.AfterFunc(d, func(now time.Time) {
		n.registry.Dispatch(event.Event{Kind: event.Timer, Doc: doc, User: user, Property: propName, Time: now})
	})
}

// subscribe registers prop's event kinds on n's registry and returns
// the subscription ids. Callers must hold s.mu.
func (s *Space) subscribe(n *node, prop property.Active, ctx *property.EventContext) []uint64 {
	kinds := prop.Events()
	ids := make([]uint64, 0, len(kinds))
	for _, k := range kinds {
		ids = append(ids, n.registry.Subscribe(k, func(e event.Event) {
			// Events for one node can be dispatched from several
			// goroutines at once (driver ops, server connections, timer
			// callbacks), so stamping Now on the shared context would
			// race; each delivery gets its own copy.
			c := *ctx
			c.Now = e.Time
			prop.OnEvent(&c, e)
		}))
	}
	return ids
}

// Attach registers an active property at (doc, user, level): the
// property's event kinds are subscribed on the node's registry, and a
// setProperty event is dispatched so notifiers — and the property
// itself (e.g. a replicator arming its first timer) — observe the
// attachment.
func (s *Space) Attach(doc, user string, level Level, p property.Active) error {
	n, b, err := s.nodeFor(doc, user, level)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if n.findActive(p.Name()) >= 0 {
		s.mu.Unlock()
		return fmt.Errorf("%w: property %s", ErrDuplicate, p.Name())
	}
	ctx := s.eventContext(doc, user, level, n, b, p.Name())
	ids := s.subscribe(n, p, ctx)
	n.actives = append(n.actives, activeEntry{prop: p, subIDs: ids})
	n.fpValid = false
	s.mu.Unlock()

	n.registry.Dispatch(event.Event{
		Kind: event.SetProperty, Doc: doc, User: user,
		Property: p.Name(), Time: s.clk.Now(), Detail: ClassActive,
	})
	return nil
}

// Detach removes the named active property and dispatches a
// removeProperty event.
func (s *Space) Detach(doc, user string, level Level, name string) error {
	n, _, err := s.nodeFor(doc, user, level)
	if err != nil {
		return err
	}
	s.mu.Lock()
	i := n.findActive(name)
	if i < 0 {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoProperty, name)
	}
	entry := n.actives[i]
	n.actives = append(n.actives[:i:i], n.actives[i+1:]...)
	n.fpValid = false
	s.mu.Unlock()

	// Dispatch before unsubscribing so the departing property (and
	// notifiers) can observe its own removal.
	n.registry.Dispatch(event.Event{
		Kind: event.RemoveProperty, Doc: doc, User: user,
		Property: name, Time: s.clk.Now(), Detail: ClassActive,
	})
	for _, id := range entry.subIDs {
		n.registry.Unsubscribe(id)
	}
	return nil
}

// Replace swaps the named active property for a new implementation
// (e.g. a spell-corrector upgrade) and dispatches a modifyProperty
// event — the paper's invalidation cause 2.
func (s *Space) Replace(doc, user string, level Level, name string, p property.Active) error {
	n, b, err := s.nodeFor(doc, user, level)
	if err != nil {
		return err
	}
	s.mu.Lock()
	i := n.findActive(name)
	if i < 0 {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoProperty, name)
	}
	old := n.actives[i]
	for _, id := range old.subIDs {
		n.registry.Unsubscribe(id)
	}
	ctx := s.eventContext(doc, user, level, n, b, p.Name())
	ids := s.subscribe(n, p, ctx)
	n.actives[i] = activeEntry{prop: p, subIDs: ids}
	n.fpValid = false
	s.mu.Unlock()

	n.registry.Dispatch(event.Event{
		Kind: event.ModifyProperty, Doc: doc, User: user,
		Property: name, Time: s.clk.Now(), Detail: ClassActive,
	})
	return nil
}

// Reorder rearranges the active properties at a node into the order
// given by names (which must be a permutation of the current names)
// and dispatches a reorderProperties event — the paper's invalidation
// cause 3, since execution order changes the resulting content.
func (s *Space) Reorder(doc, user string, level Level, names []string) error {
	n, _, err := s.nodeFor(doc, user, level)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if len(names) != len(n.actives) {
		s.mu.Unlock()
		return fmt.Errorf("docspace: reorder needs all %d property names, got %d", len(n.actives), len(names))
	}
	// Reject duplicates in names (index lookup would alias entries).
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			s.mu.Unlock()
			return fmt.Errorf("%w: %s listed twice", ErrDuplicate, name)
		}
		seen[name] = true
	}
	reordered := make([]activeEntry, 0, len(n.actives))
	for _, name := range names {
		i := n.findActive(name)
		if i < 0 {
			s.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrNoProperty, name)
		}
		reordered = append(reordered, n.actives[i])
	}
	changed := false
	for i := range reordered {
		if reordered[i].prop.Name() != n.actives[i].prop.Name() {
			changed = true
			break
		}
	}
	n.actives = reordered
	if changed {
		n.fpValid = false
	}
	s.mu.Unlock()

	if changed {
		n.registry.Dispatch(event.Event{
			Kind: event.ReorderProperties, Doc: doc, User: user,
			Time: s.clk.Now(), Detail: ClassActive,
		})
	}
	return nil
}

// AttachStatic attaches a static property (a label). Duplicate keys at
// the same node are rejected.
func (s *Space) AttachStatic(doc, user string, level Level, st property.Static) error {
	n, _, err := s.nodeFor(doc, user, level)
	if err != nil {
		return err
	}
	s.mu.Lock()
	for _, existing := range n.statics {
		if existing.Key == st.Key {
			s.mu.Unlock()
			return fmt.Errorf("%w: static %s", ErrDuplicate, st.Key)
		}
	}
	n.statics = append(n.statics, st)
	s.mu.Unlock()

	n.registry.Dispatch(event.Event{
		Kind: event.SetProperty, Doc: doc, User: user,
		Property: st.Key, Time: s.clk.Now(), Detail: ClassStatic,
	})
	return nil
}

// Statics returns the static properties at a node, in attachment
// order.
func (s *Space) Statics(doc, user string, level Level) ([]property.Static, error) {
	n, _, err := s.nodeFor(doc, user, level)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]property.Static, len(n.statics))
	copy(out, n.statics)
	return out, nil
}

// Actives returns the names of active properties at a node, in
// execution order.
func (s *Space) Actives(doc, user string, level Level) ([]string, error) {
	n, _, err := s.nodeFor(doc, user, level)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, len(n.actives))
	for i, e := range n.actives {
		names[i] = e.prop.Name()
	}
	return names, nil
}

// SignalExternalChange dispatches an externalChange event on the base
// document — how a property tracking external information (stock
// quotes, databases) tells interested parties, including cache
// notifiers, that the paper's invalidation cause 4 occurred.
func (s *Space) SignalExternalChange(doc, detail string) error {
	s.mu.Lock()
	b, ok := s.bases[doc]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoDocument, doc)
	}
	b.node.registry.Dispatch(event.Event{
		Kind: event.ExternalChange, Doc: doc, Time: s.clk.Now(), Detail: detail,
	})
	return nil
}
