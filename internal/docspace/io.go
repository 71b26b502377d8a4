package docspace

import (
	"unsafe"

	"placeless/internal/event"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/stream"
)

// activesLocked copies n's active-property list so path execution can
// run without holding the space lock. Caller holds s.mu.
func activesLocked(n *node) []property.Active {
	props := make([]property.Active, len(n.actives))
	for i, e := range n.actives {
		props[i] = e.prop
	}
	return props
}

// apply runs ts over in, in order, and returns the last output, which
// the caller owns. ro is the read-only slice in derives from — a
// provider's bytes or a table's cut — so a result that shares memory
// with ro (no transforms, an identity, a sub-slice) is copied to an
// exact-size slice; any other result is returned as it is.
func apply(ro, in []byte, ts []stream.Transform) []byte {
	for _, t := range ts {
		in = t(in)
	}
	if overlaps(in, ro) {
		return append(make([]byte, 0, len(in)), in...)
	}
	if in == nil {
		return []byte{}
	}
	return in
}

// overlaps reports whether x and y share any memory up to their
// capacities.
func overlaps(x, y []byte) bool {
	if cap(x) == 0 || cap(y) == 0 {
		return false
	}
	x, y = x[:cap(x)], y[:cap(y)]
	return uintptr(unsafe.Pointer(&x[0])) <= uintptr(unsafe.Pointer(&y[len(y)-1])) &&
		uintptr(unsafe.Pointer(&y[0])) <= uintptr(unsafe.Pointer(&x[len(x)-1]))
}

// ReadDocument executes the read path for user's reference to doc
// (paper §2, Figure 2) in one pass and returns the fully transformed
// content: the bit-provider produces the raw content, base-document
// properties' transforms run on it first, then reference properties';
// getInputStream is dispatched at both levels. The returned ReadResult
// carries the aggregated cacheability vote, the verifiers, and the
// replacement cost for the cache. It is the cache-less read, and the
// reference the staged read's parity tests compare against.
func (s *Space) ReadDocument(doc, user string) ([]byte, property.ReadResult, error) {
	s.mu.Lock()
	r, err := s.resolveRefLocked(doc, user)
	if err != nil {
		s.mu.Unlock()
		return nil, property.ReadResult{}, err
	}
	b := r.base
	s.mu.Unlock()

	now := s.clk.Now()
	rc := &property.ReadContext{Doc: doc, User: user, Now: now, Sleep: s.clk.Sleep}
	if d := s.AccessOverhead(); d > 0 {
		// Middleware cost: repository → base server → reference
		// server. It is real rebuild cost, so it also enters the
		// replacement-cost accumulator.
		s.clk.Sleep(d)
		rc.AddCost(d)
	}

	raw, err := b.bits.Open(rc)
	if err != nil {
		return nil, property.ReadResult{}, err
	}
	// Both chains in one critical section, before any hook runs, as
	// the staged read takes them: a hook that changes a chain mid-read
	// changes the next read, not this one.
	s.mu.Lock()
	props := append(activesLocked(b.node), activesLocked(r.node)...)
	s.mu.Unlock()
	var ts []stream.Transform
	for _, p := range props {
		if t := p.WrapInput(rc); t != nil {
			ts = append(ts, t)
		}
	}

	e := event.Event{Kind: event.GetInputStream, Doc: doc, User: user, Time: now}
	b.node.registry.Dispatch(e)
	r.node.registry.Dispatch(e)

	return apply(raw, raw, ts), rc.Result(), nil
}

// WriteDocument executes the write path for user's reference to doc.
// getOutputStream is dispatched at both levels first — which is when a
// versioning property snapshots the superseded content — then the
// reference properties' transforms run (they see the application's
// bytes first), then the base-document properties', and the
// bit-provider stores the result. contentWritten is dispatched on the
// base after the store, whether or not it succeeded: it is the hook
// notifiers use for the paper's invalidation cause 1 (updates through
// the Placeless system). data is only read.
func (s *Space) WriteDocument(doc, user string, data []byte) error {
	s.mu.Lock()
	r, err := s.resolveRefLocked(doc, user)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	b := r.base
	s.mu.Unlock()

	if d := s.AccessOverhead(); d > 0 {
		s.clk.Sleep(d)
	}
	if _, ok := b.bits.(*property.ComposedBitProvider); ok {
		// A composition has no one place to store to: the write is
		// refused before any property sees it.
		return repo.ErrReadOnly
	}
	now := s.clk.Now()
	wc := &property.WriteContext{
		Doc: doc, User: user, Now: now, Sleep: s.clk.Sleep,
		Snapshot: func() ([]byte, error) { return b.bits.ReadCurrent() },
	}
	// Reuse the event-context hooks for StoreAside/AttachStatic.
	ectx := s.eventContext(doc, user, Universal, b.node, b, "")
	wc.StoreAside = ectx.StoreAside
	wc.AttachStatic = ectx.AttachStatic

	ts := s.writeTransforms(r, wc)
	e := event.Event{Kind: event.GetOutputStream, Doc: doc, User: user, Time: now}
	r.node.registry.Dispatch(e)
	b.node.registry.Dispatch(e)

	for _, t := range ts {
		data = t(data)
	}
	err = b.bits.Store(wc, data)
	// After the store, failed or not: a stamp taken under the old
	// count may hold bytes this store replaced within one mtime tick.
	b.writes.Add(1)
	b.node.registry.Dispatch(event.Event{
		Kind: event.ContentWritten, Doc: doc, User: user, Time: s.clk.Now(),
	})
	return err
}

// writeTransforms runs the write-path hooks of r's properties, then of
// its base's, against wc and returns their transforms in that order.
// Like the reads, it takes both chains in one critical section.
func (s *Space) writeTransforms(r *Ref, wc *property.WriteContext) []stream.Transform {
	s.mu.Lock()
	props := append(activesLocked(r.node), activesLocked(r.base.node)...)
	s.mu.Unlock()
	var ts []stream.Transform
	for _, p := range props {
		if t := p.WrapOutput(wc); t != nil {
			ts = append(ts, t)
		}
	}
	return ts
}

// ForwardEvent redelivers an operation event on behalf of a cache
// serving a hit for content cached under the CacheWithEvents
// indicator: "the cache will forward the operation, but the Placeless
// system will not execute them fully, instead just use them to trigger
// active properties that have registered for these events" (paper §3).
// Only OnEvent handlers run; no transforms run and no content moves.
func (s *Space) ForwardEvent(doc, user string, kind event.Kind) error {
	s.mu.Lock()
	r, err := s.resolveRefLocked(doc, user)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	b := r.base
	s.mu.Unlock()

	e := event.Event{
		Kind: kind, Doc: doc, User: user,
		Time: s.clk.Now(), Detail: "forwarded",
	}
	b.node.registry.Dispatch(e)
	r.node.registry.Dispatch(e)
	return nil
}
