// Package docspace implements the Placeless document model: base
// documents, per-user document references, property attachment, and
// the event-driven read/write paths.
//
// A base document links to actual content through its bit-provider
// and carries universal properties seen by every user; each user
// interacts through a document reference carrying personal properties
// seen only by that user (paper §2, Figure 1). Content flows through
// chains of whole-content transforms returned by active properties: on
// the read path base-document properties execute before reference
// properties, on the write path reference properties execute before
// base-document properties (Figure 2).
package docspace

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"placeless/internal/clock"
	"placeless/internal/event"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/sig"
)

// Well-known errors.
var (
	// ErrNoDocument indicates the base document does not exist.
	ErrNoDocument = errors.New("docspace: no such document")
	// ErrNoReference indicates the user holds no reference to the
	// document.
	ErrNoReference = errors.New("docspace: no such reference")
	// ErrDuplicate indicates the id or property name is already in use
	// at that attachment point.
	ErrDuplicate = errors.New("docspace: duplicate")
	// ErrNoProperty indicates the named property is not attached.
	ErrNoProperty = errors.New("docspace: no such property")
	// ErrNoArchive indicates a property needed version storage but the
	// space has no archive repository configured.
	ErrNoArchive = errors.New("docspace: no archive repository")
	// ErrBadID indicates a document id containing a NUL byte. Caches
	// key entries as id+"\x00"+user and namespace intermediates under
	// a NUL-leading prefix, so a NUL inside an id would make those
	// keys ambiguous — the invariant is enforced here, at
	// registration, rather than trusted downstream.
	ErrBadID = errors.New("docspace: document id contains NUL")
)

// TimerClock is the clock capability the space needs: time, sleeping,
// and scheduled callbacks for timer-driven properties. clock.Virtual
// satisfies it.
type TimerClock interface {
	clock.Clock
	AfterFunc(d time.Duration, fn func(now time.Time)) (cancel func())
}

// activeEntry tracks an attached active property and its event
// registrations.
type activeEntry struct {
	prop   property.Active
	subIDs []uint64
}

// node is one property attachment point — either a base document or a
// document reference. It owns an ordered active-property list, a
// static-property list, and an event registry.
type node struct {
	actives  []activeEntry
	statics  []property.Static
	registry *event.Registry
	// fp caches the node's chain fingerprint (see stage.go): the
	// universal-chain fingerprint on base-document nodes, the
	// personal-chain fingerprint on reference nodes. memo caches
	// whether every active has a memo contract, so the chain is
	// memoizable without asking its transforms. fpValid covers both
	// and is cleared, under s.mu, by every mutation of the active list.
	fp      sig.Signature
	memo    bool
	fpValid bool
}

func newNode() *node { return &node{registry: event.NewRegistry()} }

// findActive returns the index of the named active property, or -1.
func (n *node) findActive(name string) int {
	for i, e := range n.actives {
		if e.prop.Name() == name {
			return i
		}
	}
	return -1
}

// Base is a base document: the link to actual content plus universal
// properties.
type Base struct {
	id    string
	owner string
	bits  property.BitProvider
	node  *node

	// stamp is the source signature ContentKey last computed, with the
	// verifiers the bit-provider's fetch returned; writes counts stores
	// through WriteDocument. See sourceSig.
	stamp  atomic.Pointer[sourceStamp]
	writes atomic.Uint64
}

// ID returns the document identifier.
func (b *Base) ID() string { return b.id }

// Owner returns the user who created (or imported) the document.
func (b *Base) Owner() string { return b.owner }

// BitProvider returns the special content-linking property.
func (b *Base) BitProvider() property.BitProvider { return b.bits }

// Ref is one user's document reference.
type Ref struct {
	user string
	base *Base
	node *node
}

// User returns the reference owner.
func (r *Ref) User() string { return r.user }

// Doc returns the referenced base document's id.
func (r *Ref) Doc() string { return r.base.id }

// Space manages base documents and document references. The paper's
// design gives each user (or group) their own document space; this
// implementation manages all users' references in one Space object,
// keyed by user, which preserves the visibility rules while keeping
// one consistent view for the cache experiments.
type Space struct {
	clk TimerClock
	// Archive, if non-nil, receives StoreAside content (saved
	// versions); nil disables archiving.
	archive repo.Repository

	mu       sync.Mutex
	bases    map[string]*Base
	refs     map[string]map[string]*Ref // doc -> user -> ref
	groups   map[string]map[string]bool // group -> member set
	overhead time.Duration
}

// New returns an empty document space on the given clock. archive may
// be nil if no property needs StoreAside.
func New(clk TimerClock, archive repo.Repository) *Space {
	return &Space{
		clk:     clk,
		archive: archive,
		bases:   make(map[string]*Base),
		refs:    make(map[string]map[string]*Ref),
	}
}

// Clock returns the space's clock.
func (s *Space) Clock() TimerClock { return s.clk }

// SetAccessOverhead configures the per-access middleware cost charged
// on every Open/Create. The paper notes that document accesses
// "require content to be sent from the storage repository to at least
// one, possibly two, Placeless servers, which increases network
// traffic and execution time at each of the servers"; this models that
// fixed overhead.
func (s *Space) SetAccessOverhead(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d > 0 {
		s.overhead = d
	}
}

// AccessOverhead returns the configured middleware cost.
func (s *Space) AccessOverhead() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overhead
}

// CreateDocument registers a base document with the given
// bit-provider, owned by owner, and creates the owner's reference.
func (s *Space) CreateDocument(id, owner string, bits property.BitProvider) (*Base, error) {
	if strings.ContainsRune(id, 0) {
		return nil, fmt.Errorf("%w: %q", ErrBadID, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.bases[id]; ok {
		return nil, fmt.Errorf("%w: document %s", ErrDuplicate, id)
	}
	b := &Base{id: id, owner: owner, bits: bits, node: newNode()}
	s.bases[id] = b
	s.refs[id] = map[string]*Ref{owner: {user: owner, base: b, node: newNode()}}
	return b, nil
}

// AddReference gives user a reference to the document.
func (s *Space) AddReference(doc, user string) (*Ref, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bases[doc]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoDocument, doc)
	}
	if _, ok := s.refs[doc][user]; ok {
		return nil, fmt.Errorf("%w: reference %s/%s", ErrDuplicate, doc, user)
	}
	r := &Ref{user: user, base: b, node: newNode()}
	s.refs[doc][user] = r
	return r, nil
}

// RemoveReference drops user's reference to doc, including its
// personal properties. The owner's reference cannot be removed while
// the document exists.
func (s *Space) RemoveReference(doc, user string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bases[doc]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoDocument, doc)
	}
	if user == b.owner {
		return fmt.Errorf("docspace: cannot remove the owner's reference to %s", doc)
	}
	if _, ok := s.refs[doc][user]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNoReference, doc, user)
	}
	delete(s.refs[doc], user)
	return nil
}

// RemoveDocument deletes a base document and every reference to it.
// Content in the backing repository is untouched.
func (s *Space) RemoveDocument(doc string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.bases[doc]; !ok {
		return fmt.Errorf("%w: %s", ErrNoDocument, doc)
	}
	delete(s.bases, doc)
	delete(s.refs, doc)
	return nil
}

// Document returns the base document.
func (s *Space) Document(doc string) (*Base, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bases[doc]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoDocument, doc)
	}
	return b, nil
}

// Reference returns user's reference to doc.
func (s *Space) Reference(doc, user string) (*Ref, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.referenceLocked(doc, user)
}

func (s *Space) referenceLocked(doc, user string) (*Ref, error) {
	if _, ok := s.bases[doc]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoDocument, doc)
	}
	r, ok := s.refs[doc][user]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoReference, doc, user)
	}
	return r, nil
}

// Users lists the users holding references to doc, including the
// owner.
func (s *Space) Users(doc string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var users []string
	for u := range s.refs[doc] {
		users = append(users, u)
	}
	return users
}

// Documents lists all base document ids.
func (s *Space) Documents() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.bases))
	for id := range s.bases {
		ids = append(ids, id)
	}
	return ids
}
