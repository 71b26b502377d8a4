// Package server exposes a document space over TCP, playing the role
// of the Placeless server processes in the paper's deployment: "Document
// accesses also require content to be sent from the storage repository
// to at least one, possibly two, Placeless servers." Remote
// applications (and remote caches) talk to the server through Client,
// which mirrors the local Space API; notifier invalidations are pushed
// to connected clients over the same connection.
//
// One wire protocol: a negotiated binary framing (protocol2.go). A
// client opens with an 8-byte magic preamble and the server answers
// with an ack before either side sends a frame; a peer that opens with
// anything else is closed. Every request carries a client-chosen call
// ID, every response echoes it, and server-initiated invalidation
// pushes use ID 0. Every request, the read response and the push are
// hand-encoded; only the four responses that carry structure (Stats,
// ListActives, Describe, Find) ride as a gob payload inside a frame.
package server

import (
	"fmt"

	"placeless/internal/sig"
)

// Op identifies a request type.
type Op int

// Protocol operations, mirroring the Space API the cache and
// applications need remotely.
const (
	// OpRead executes the read path and returns transformed content
	// plus the cache-facing metadata.
	OpRead Op = iota
	// OpWrite executes the write path with the request body.
	OpWrite
	// OpAttach attaches a named standard property (see
	// ParsePropertySpec in this package).
	OpAttach
	// OpDetach removes a property.
	OpDetach
	// OpAttachStatic attaches a static label.
	OpAttachStatic
	// OpAddReference gives a user a reference to a document.
	OpAddReference
	// OpCreateDocument registers a new document backed by the
	// server-side repository.
	OpCreateDocument
	// OpSubscribe registers the client for invalidation pushes for a
	// document (the remote notifier channel) without reading it. A
	// cache subscribes with every OpRead it sends instead
	// (Request.Subscribe); this op serves plctl subscribe.
	OpSubscribe
	// OpForwardEvent redelivers an operation event (CacheWithEvents
	// support for remote caches).
	OpForwardEvent
	// OpStats returns server counters.
	OpStats
	// OpListActives lists active property names at a node.
	OpListActives
	// OpDescribe returns a document's configuration summary.
	OpDescribe
	// OpFind lists documents visible to the user that carry a static
	// property (Property = key, Value = optional value filter).
	OpFind
)

// String names the op.
func (o Op) String() string {
	names := [...]string{
		"read", "write", "attach", "detach", "attachStatic",
		"addReference", "createDocument", "subscribe", "forwardEvent",
		"stats", "listActives", "describe", "find",
	}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Request is a client→server frame.
type Request struct {
	// ID is echoed in the response; must be non-zero.
	ID uint64
	// Op selects the operation.
	Op Op
	// Doc and User identify the document/reference.
	Doc, User string
	// Personal selects the reference level for property operations
	// (false = universal).
	Personal bool
	// Property names the property for attach/detach; for OpAttach it
	// is a standard-property spec (see ParsePropertySpec).
	Property string
	// Value carries the static property value or forwarded event
	// kind.
	Value string
	// Body carries write content.
	Body []byte
	// Subscribe, on an OpRead, asks the server to install this
	// connection's notifiers for (Doc, User) before it executes the
	// read, so that every change after the returned snapshot is pushed.
	// Ignored on every other op.
	Subscribe bool
}

// Response is a server→client frame. Frames with ID 0 are
// notifications.
type Response struct {
	// ID matches the request; 0 marks a push notification.
	ID uint64
	// Err is the error string ("" = success).
	Err string
	// Body is the content for reads.
	Body []byte
	// Cacheability and CostNanos carry the read result's cache
	// metadata. Verifier code cannot cross the wire; remote clients
	// rely on subscription-based invalidation pushes instead (the
	// notifier mechanism), matching the paper's observation that the
	// number of caches per document is small enough to collaborate
	// with the Placeless system.
	Cacheability int
	CostNanos    int64
	// ExpiryUnixNanos is the earliest TTL deadline of the content as
	// UnixNano (0 = no TTL). Verifier code cannot cross the wire, but
	// a deadline can, so remote caches honor web-style freshness.
	ExpiryUnixNanos int64
	// SubscribeFailed, on the response to an OpRead that carried
	// Subscribe, reports that the notifiers could not be installed (no
	// such document or reference yet). The body is still this read's
	// answer; nothing will announce that it changed.
	SubscribeFailed bool
	// Signature is the content signature of Body, computed once at the
	// origin (the server-side cache's intern-time hash) and shipped in
	// the read metadata under the frame checksum, so a remote cache can
	// key its shared storage by it without hashing the body again. Set
	// on every read response whose Cacheability allows storing it.
	Signature sig.Signature
	// Notification payload (ID 0): the affected document and user
	// ("" = all users of the document).
	NotifyDoc, NotifyUser string
	// Actives lists property names for OpListActives.
	Actives []string
	// Stats carries counter values for OpStats.
	Stats map[string]int64
	// Text carries a rendered description for OpDescribe.
	Text string
	// Matches carries the OpFind hits as structured fields, so static
	// property values containing tabs or newlines survive the wire
	// (the old format packed "doc\tvalue\tlevel" into one string and
	// corrupted such values on split).
	Matches []Match

	// err is the error Err was rendered from, for callers in this
	// process; it never crosses the wire.
	err error
}

// Match is one property-search hit (OpFind).
type Match struct {
	// Doc is the matched document id.
	Doc string
	// Value is the matched static property's value.
	Value string
	// Level reports where the property is attached
	// ("universal"/"personal").
	Level string
}
