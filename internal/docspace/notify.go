package docspace

import (
	"sort"
	"sync"

	"placeless/internal/event"
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
// Static labels cannot.
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

// pairSpot is one registration point of a pair: a base document
// (user == "") or user's reference to it.
type pairSpot struct{ doc, user string }

func (sp pairSpot) level() Level {
	if sp.user == "" {
		return Universal
	}
	return Personal
}

// pairSub is what a pair registered at one spot: the node's registry
// and one subscription id per event kind.
type pairSub struct {
	registry *event.Registry
	ids      []uint64
}

// NotifierPair is the paper's push half of cache consistency, for one
// cache at either placement (the in-process cache, or a server
// connection standing in for a remote one): "When Eyal first opens the
// paper from MS-Word, a notifier property is attached to the base
// document to invalidate the cache if the file is opened for writing
// by another user. Another notifier at the base tracks any additions
// or deletions of active properties... At Eyal's document reference, a
// third notifier is attached to watch for active property additions,
// deletions and for changes." Both base roles ride one registration
// here.
//
// A notifier transforms no content, so it is not a member of the
// property chain: the pair subscribes its handlers on the event
// registries of the base document and of the reference. It changes no
// fingerprint, appears in no listing and dispatches no property event.
// Handlers run inside the space's event dispatch, on the goroutine that
// made the change, with no lock of the pair or the space held.
type NotifierPair struct {
	space        *Space
	prefix       string
	onDoc, onRef func(event.Event)

	// mu orders before Space.mu and event.Registry.mu: Ensure resolves
	// nodes and subscribes under it, Close unsubscribes under it.
	mu sync.Mutex
	// installed holds the spots whose handlers are registered; it is
	// both the dedup set and the list Close unsubscribes, and nil once
	// Close ran.
	installed map[pairSpot]pairSub
}

// NewNotifierPair returns the notifiers of one cache on space. prefix
// names them in Installed. onDoc receives content-affecting events on
// a base document (every user's view is suspect), onRef those on one
// user's reference.
func NewNotifierPair(space *Space, prefix string, onDoc, onRef func(event.Event)) *NotifierPair {
	return &NotifierPair{space: space, prefix: prefix, onDoc: onDoc, onRef: onRef,
		installed: make(map[pairSpot]pairSub)}
}

// Ensure registers the base notifier for doc and, unless user is
// empty, the reference notifier for (doc, user), whichever is not
// registered yet. A spot counts as registered only once its node was
// found, so a call that failed — the document or the reference does
// not exist yet — is retried in full by the next one. After Close it
// registers nothing.
func (p *NotifierPair) Ensure(doc, user string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.installed == nil {
		return nil
	}
	if err := p.registerLocked(pairSpot{doc: doc}); err != nil {
		return err
	}
	if user == "" {
		return nil
	}
	return p.registerLocked(pairSpot{doc: doc, user: user})
}

// registerLocked subscribes the handler for sp on its node's registry,
// unless it is there already. Caller holds p.mu.
func (p *NotifierPair) registerLocked(sp pairSpot) error {
	if _, ok := p.installed[sp]; ok {
		return nil
	}
	n, _, err := p.space.nodeFor(sp.doc, sp.user, sp.level())
	if err != nil {
		return err
	}
	kinds, notify := baseNotifierKinds, p.onDoc
	if sp.user != "" {
		kinds, notify = refNotifierKinds, p.onRef
	}
	h := func(e event.Event) {
		if contentAffecting(e) {
			notify(e)
		}
	}
	sub := pairSub{registry: n.registry, ids: make([]uint64, len(kinds))}
	for i, k := range kinds {
		sub.ids[i] = n.registry.Subscribe(k, h)
	}
	p.installed[sp] = sub
	return nil
}

// name is the name of the notifier at sp.
func (p *NotifierPair) name(sp pairSpot) string {
	if sp.user == "" {
		return p.prefix + ":" + sp.doc + ":base"
	}
	return p.prefix + ":" + sp.doc + ":" + sp.user
}

// Installed returns the sorted names of the registered notifiers,
// "<prefix>:<doc>:base" for a base document and "<prefix>:<doc>:<user>"
// for a reference.
func (p *NotifierPair) Installed() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.installed))
	for sp := range p.installed {
		names = append(names, p.name(sp))
	}
	sort.Strings(names)
	return names
}

// Close unsubscribes every notifier the pair registered. A later
// Ensure registers nothing.
func (p *NotifierPair) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sub := range p.installed {
		for _, id := range sub.ids {
			sub.registry.Unsubscribe(id)
		}
	}
	p.installed = nil
}
