// Package property implements Placeless document properties: static
// labels and active, event-driven behaviours.
//
// Properties are "statements about the context of a document or the
// intended behavior for the document" (paper §1). Static properties
// are labels; active properties register for document events and run
// when they fire, optionally returning a transform of the whole
// content on the read and write paths (see package stream). Active
// properties also drive the caching architecture: they vote
// cacheability, accumulate replacement cost, return verifiers with
// content, and — as notifiers — push invalidations to caches.
package property

import (
	"time"

	"placeless/internal/event"
	"placeless/internal/stream"
)

// Cacheability is a property's vote on whether and how the content it
// produced may be cached (paper §3, Cache Management). Votes aggregate
// to the most restrictive value across the read path.
type Cacheability int

const (
	// Unrestricted allows the cache to serve hits without consulting
	// the Placeless system.
	Unrestricted Cacheability = iota
	// CacheWithEvents allows caching, but the cache must still
	// forward operation events so event-only properties (e.g. read
	// audit trails) are triggered; the forwarded operations are not
	// executed fully.
	CacheWithEvents
	// Uncacheable forbids caching the content at all.
	Uncacheable
)

// String names the vote.
func (c Cacheability) String() string {
	switch c {
	case Unrestricted:
		return "unrestricted"
	case CacheWithEvents:
		return "cacheWithEvents"
	case Uncacheable:
		return "uncacheable"
	default:
		return "invalid"
	}
}

// Restrict returns the more restrictive of two votes; the aggregation
// operator for the read path. It is commutative, associative, and
// idempotent, so aggregate cacheability is independent of property
// order.
func Restrict(a, b Cacheability) Cacheability {
	if b > a {
		return b
	}
	return a
}

// Memoizable is the opt-in contract for intermediate memoization of
// the read path's universal stage. An active property that implements
// it — and reports ok — declares that its read-path transform is a
// pure function of the input bytes: same input, same output, no
// mutation or retention of the input slice, and no dependence on
// information outside the property's own configuration. Caches may
// then reuse the stage's output across users instead of re-executing
// the transform chain, keyed by (source signature, chain fingerprint).
//
// The default is NOT memoizable: a property that does not implement
// this interface (or reports ok=false) forces the cache to re-run the
// stage on every read. Properties whose output depends on external
// information — the paper's invalidation cause 4 (current time,
// databases, stock quotes) — must stay non-memoizable, because no
// property-mutation event fires when that information moves.
//
// The key must change whenever the property's behaviour changes: it
// should digest the name, release version, and every configuration
// input that affects output bytes (dictionaries, line counts,
// banners). Two properties with equal keys are assumed to produce
// byte-identical output for equal input.
type Memoizable interface {
	Active
	// MemoKey returns the behaviour digest and whether the read
	// transform is memoizable at all.
	MemoKey() (key string, ok bool)
}

// Verifier is consistency-checking code returned to a cache along with
// document content (paper §3, Notifiers and Verifiers). The cache runs
// every verifier on each hit; if any reports invalid, the entry is
// discarded and the access treated as a miss. Verifiers exist to catch
// changes outside Placeless control, so a Check typically polls the
// original source and charges simulated time for doing so.
type Verifier interface {
	// Name identifies the verifier in traces.
	Name() string
	// Check reports whether the cached entry is still valid at the
	// given time. An error counts as invalid (fail-safe).
	Check(now time.Time) (bool, error)
}

// Static is a passive label attached to a document, such as
// "1999 workshop submission" or a saved-version link.
type Static struct {
	// Key is the label name.
	Key string
	// Value is the label content; may be empty for pure tags.
	Value string
}

// Name returns the label key.
func (s Static) Name() string { return s.Key }

// ReadContext is handed to each active property during getInputStream
// dispatch. The property uses it to vote cacheability, contribute
// replacement cost, and return verifiers — the three channels through
// which properties inform the cache (paper §3).
type ReadContext struct {
	// Doc is the base document id; User the reference owner (empty
	// when the read path is executing base-document properties for
	// an owner-less access).
	Doc, User string
	// Now is the simulated time at which the read began.
	Now time.Time
	// Sleep charges simulated execution time (a property's transform
	// cost) to the access.
	Sleep func(d time.Duration)

	cacheability Cacheability
	verifiers    []Verifier
	cost         time.Duration
	related      []string
}

// Vote merges a cacheability vote; aggregation keeps the most
// restrictive value seen.
func (rc *ReadContext) Vote(c Cacheability) { rc.cacheability = Restrict(rc.cacheability, c) }

// AddVerifier returns v to the cache along with the content.
func (rc *ReadContext) AddVerifier(v Verifier) {
	if v != nil {
		rc.verifiers = append(rc.verifiers, v)
	}
}

// AddCost adds d to the entry's replacement cost. The bit-provider
// initializes the value with the retrieval cost; each property on the
// read path then adds its execution time (paper §3, Cache Management).
func (rc *ReadContext) AddCost(d time.Duration) {
	if d > 0 {
		rc.cost += d
	}
}

// CostSoFar returns the replacement cost accumulated so far; staged
// read paths use it to attribute cost deltas to individual stages.
func (rc *ReadContext) CostSoFar() time.Duration { return rc.cost }

// ScaleCost multiplies the replacement cost accumulated so far by
// factor; QoS properties use it to inflate cost (paper §5).
func (rc *ReadContext) ScaleCost(factor float64) {
	if factor > 0 {
		rc.cost = time.Duration(float64(rc.cost) * factor)
	}
}

// FloorCost raises the replacement cost to at least min.
func (rc *ReadContext) FloorCost(min time.Duration) {
	if rc.cost < min {
		rc.cost = min
	}
}

// AddRelated tells the cache that doc is related to the one being read
// (e.g. a member of the same collection), a hint prefetching policies
// can act on (paper §5 names caching for related documents as open
// work). Duplicates and the document being read itself are filtered by
// the consumer.
func (rc *ReadContext) AddRelated(doc string) {
	if doc != "" && doc != rc.Doc {
		rc.related = append(rc.related, doc)
	}
}

// Result snapshots what the read path accumulated for the cache.
func (rc *ReadContext) Result() ReadResult {
	vs := make([]Verifier, len(rc.verifiers))
	copy(vs, rc.verifiers)
	rel := make([]string, len(rc.related))
	copy(rel, rc.related)
	return ReadResult{Cacheability: rc.cacheability, Verifiers: vs, Cost: rc.cost, Related: rel}
}

// ReadResult is the cache-facing outcome of executing a read path:
// everything the cache receives besides the bytes themselves.
type ReadResult struct {
	// Cacheability is the most restrictive vote across the path.
	Cacheability Cacheability
	// Verifiers must all pass on every future cache hit.
	Verifiers []Verifier
	// Cost is the accumulated replacement cost (retrieval plus
	// property execution times), the input to Greedy-Dual-Size.
	Cost time.Duration
	// Related lists documents a property declared related to this
	// one; caches may prefetch them.
	Related []string
}

// WriteContext is handed to each active property during
// getOutputStream dispatch.
type WriteContext struct {
	// Doc and User identify the document and writing reference.
	Doc, User string
	// Now is the simulated time at which the write began.
	Now time.Time
	// Sleep charges simulated execution time.
	Sleep func(d time.Duration)
	// Snapshot reads the document's current content (before this
	// write) through the bit-provider; versioning properties use it
	// to park the superseded copy.
	Snapshot func() ([]byte, error)
	// StoreAside archives data under a label in an auxiliary
	// repository (e.g. the DMS), returning the archive path.
	StoreAside func(label string, data []byte) (string, error)
	// AttachStatic attaches a static property to the base document,
	// e.g. a link to a saved version.
	AttachStatic func(key, value string)
}

// EventContext is handed to active properties for non-stream events
// (property mutations, timers, content-written).
type EventContext struct {
	// Doc and User identify the document and, when applicable, the
	// reference owner.
	Doc, User string
	// Now is the simulated time of the event.
	Now time.Time
	// ReadCurrent reads the document's current content through the
	// bit-provider.
	ReadCurrent func() ([]byte, error)
	// StoreAside archives data under a label, as in WriteContext.
	StoreAside func(label string, data []byte) (string, error)
	// AttachStatic attaches a static property to the base document.
	AttachStatic func(key, value string)
	// ScheduleTimer requests a Timer event for this property after d.
	ScheduleTimer func(d time.Duration)
}

// Active is an event-driven property. Implementations embed Base and
// override what they need.
type Active interface {
	// Name identifies the property; names are unique per attachment
	// point.
	Name() string
	// Events lists the kinds the property registers for.
	Events() []event.Kind
	// OnEvent handles a non-stream event the property registered for.
	OnEvent(ctx *EventContext, e event.Event)
	// WrapInput returns this property's read-path transform of the
	// whole content, or nil if it does not intercept reads. Called
	// during getInputStream dispatch, on every read, so votes,
	// verifiers and cost accumulate on ctx even when the transform's
	// output is served from a cache.
	WrapInput(ctx *ReadContext) stream.Transform
	// WrapOutput returns this property's write-path transform of the
	// whole content, or nil. Called during getOutputStream dispatch.
	WrapOutput(ctx *WriteContext) stream.Transform
}

// Base provides no-op defaults for Active; concrete properties embed
// it and override selectively.
type Base struct {
	// PropName is returned by Name.
	PropName string
}

// Name implements Active.
func (b Base) Name() string { return b.PropName }

// Events implements Active with an empty registration set.
func (Base) Events() []event.Kind { return nil }

// OnEvent implements Active as a no-op.
func (Base) OnEvent(*EventContext, event.Event) {}

// WrapInput implements Active with no read-path interception.
func (Base) WrapInput(*ReadContext) stream.Transform { return nil }

// WrapOutput implements Active with no write-path interception.
func (Base) WrapOutput(*WriteContext) stream.Transform { return nil }

// BitProvider is the special active property on a base document that
// links it to actual content (paper §2). It terminates both content
// paths and, on reads, seeds the ReadContext with retrieval cost, a
// source-appropriate verifier, and a cacheability vote.
type BitProvider interface {
	// Name identifies the provider.
	Name() string
	// Open returns the raw content for the read path. The caller
	// only reads it: it may be the source's own bytes.
	Open(ctx *ReadContext) ([]byte, error)
	// Store replaces the document content with data, the write
	// path's transformed bytes. It must not retain data.
	Store(ctx *WriteContext, data []byte) error
	// ReadCurrent fetches the current content without touching a
	// context; used by Snapshot/ReadCurrent context hooks.
	ReadCurrent() ([]byte, error)
}
