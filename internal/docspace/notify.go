package docspace

import (
	"errors"
	"sync"

	"placeless/internal/event"
	"placeless/internal/property"
)

// The event kinds each half of a NotifierPair listens for. A write or
// an external change reaches every user through the base document;
// property changes can happen at either level.
var (
	baseNotifierKinds = []event.Kind{event.ContentWritten, event.SetProperty, event.RemoveProperty,
		event.ModifyProperty, event.ReorderProperties, event.ExternalChange}
	refNotifierKinds = []event.Kind{event.SetProperty, event.RemoveProperty,
		event.ModifyProperty, event.ReorderProperties}
)

// contentAffecting is the semantic predicate of cache notifiers: only
// events that can change the content a user sees should invalidate.
// Static labels and other caches' machinery cannot.
func contentAffecting(e event.Event) bool {
	switch e.Kind {
	case event.ContentWritten, event.ReorderProperties, event.ExternalChange:
		return true
	case event.SetProperty, event.RemoveProperty, event.ModifyProperty:
		return e.Detail == ClassActive
	default:
		return false
	}
}

// pairNotifier carries the machinery marker, so the space classifies a
// pair's own attachment events as cache machinery (other caches must
// not invalidate when a cache installs plumbing).
type pairNotifier struct{ *property.Notifier }

// CacheMachinery marks the property as cache-installed plumbing.
func (pairNotifier) CacheMachinery() {}

// pairSpot is one attachment point of a pair: a base document
// (user == "") or user's reference to it.
type pairSpot struct{ doc, user string }

func (sp pairSpot) level() Level {
	if sp.user == "" {
		return Universal
	}
	return Personal
}

// NotifierPair is the paper's push half of cache consistency, for one
// cache at either placement (the in-process cache, or a server
// connection standing in for a remote one): "When Eyal first opens the
// paper from MS-Word, a notifier property is attached to the base
// document to invalidate the cache if the file is opened for writing
// by another user. Another notifier at the base tracks any additions
// or deletions of active properties... At Eyal's document reference, a
// third notifier is attached to watch for active property additions,
// deletions and for changes." Both base roles ride one notifier here.
//
// Callbacks run inside the space's event dispatch, on the goroutine
// that made the change.
type NotifierPair struct {
	space        *Space
	prefix       string
	onDoc, onRef func(event.Event)

	mu     sync.Mutex
	closed bool
	// installed holds the spots whose notifier is live on the space; it
	// is both the dedup set and the list Close detaches.
	installed map[pairSpot]struct{}
}

// NewNotifierPair returns the notifiers of one cache on space. prefix
// namespaces their property names and must be unique among the pairs
// on a space. onDoc receives content-affecting events on a base
// document (every user's view is suspect), onRef those on one user's
// reference.
func NewNotifierPair(space *Space, prefix string, onDoc, onRef func(event.Event)) *NotifierPair {
	return &NotifierPair{space: space, prefix: prefix, onDoc: onDoc, onRef: onRef,
		installed: make(map[pairSpot]struct{})}
}

// Ensure attaches the base notifier for doc and, unless user is empty,
// the reference notifier for (doc, user), whichever is not attached
// yet. A spot counts as attached only once the space accepted it, so a
// call that failed — the document or the reference does not exist yet
// — is retried in full by the next one. The attachments run with no
// lock held: attaching dispatches events, and properties reacting to
// them may re-enter the cache. Racing calls offer the same property
// name and the space keeps one.
func (p *NotifierPair) Ensure(doc, user string) error {
	base, ref := pairSpot{doc: doc}, pairSpot{doc: doc, user: user}
	p.mu.Lock()
	_, haveBase := p.installed[base]
	_, haveRef := p.installed[ref]
	p.mu.Unlock()
	if !haveBase {
		if err := p.attach(base); err != nil {
			return err
		}
	}
	if user != "" && !haveRef {
		return p.attach(ref)
	}
	return nil
}

// name is the property name of the notifier at sp.
func (p *NotifierPair) name(sp pairSpot) string {
	if sp.user == "" {
		return p.prefix + ":" + sp.doc + ":base"
	}
	return p.prefix + ":" + sp.doc + ":" + sp.user
}

func (p *NotifierPair) attach(sp pairSpot) error {
	kinds, notify := baseNotifierKinds, p.onDoc
	if sp.user != "" {
		kinds, notify = refNotifierKinds, p.onRef
	}
	n := pairNotifier{property.NewNotifier(p.name(sp), notify, kinds...)}
	n.Predicate = contentAffecting
	if err := p.space.Attach(sp.doc, sp.user, sp.level(), n); err != nil && !errors.Is(err, ErrDuplicate) {
		return err
	}
	p.mu.Lock()
	closed := p.closed
	if !closed {
		p.installed[sp] = struct{}{}
	}
	p.mu.Unlock()
	if closed {
		// Close ran between the lookup and the attach and will not see
		// this spot.
		p.detach(sp)
	}
	return nil
}

func (p *NotifierPair) detach(sp pairSpot) {
	// The document or reference may be gone, and its notifier with it.
	_ = p.space.Detach(sp.doc, sp.user, sp.level(), p.name(sp))
}

// Close detaches every notifier the pair installed. A later Ensure
// leaves nothing attached.
func (p *NotifierPair) Close() {
	p.mu.Lock()
	p.closed = true
	installed := p.installed
	p.installed = nil
	p.mu.Unlock()
	for sp := range installed {
		p.detach(sp)
	}
}
