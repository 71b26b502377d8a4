// Package remote implements a client-side document cache over the
// Placeless TCP protocol: the deployment the paper measures, where the
// cache runs "on the machine where applications are run" while the
// Placeless servers (and the repositories behind them) are remote.
//
// Consistency is push-based: every miss carries its key's
// subscription, and the server-side notifiers stream invalidations
// back over the connection (verifier code cannot cross the wire, so a
// remote cache leans on the notifier half of the paper's mechanism
// pair; the server still runs verifier-equivalent checks when it
// re-executes the read path on a miss). Cacheability indicators are
// honored: Uncacheable results are never stored, and CacheWithEvents
// entries forward a getInputStream event to the server on every hit.
//
// Because consistency leans entirely on the push stream, a broken
// connection is a correctness event, not just an availability one:
// while disconnected the cache fails fast, refusing every read with
// ErrDegraded, and on reconnect it flushes everything cached under the
// old connection epoch, because invalidations may have been lost in
// between. The subscriptions died with the connection; the cache keeps
// no copy of them, so there is nothing to forget: each key subscribes
// again with its next miss. See DESIGN.md §9 for the failure model.
//
// The entries themselves live in a core.Table, the same table the
// origin's cache keeps (DESIGN.md §6): index, blob store, replacement
// policy, eviction, per-document generations and single-flight are the
// origin's. What this package adds is what belongs to a wire.
package remote

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/event"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/replace"
	"placeless/internal/server"
	"placeless/internal/stream"
)

// ErrClosed is returned by operations on a closed cache.
var ErrClosed = errors.New("remote: cache is closed")

// ErrDegraded is returned for every read and write while the server is
// unreachable: without the invalidation stream no cached entry can be
// proven fresh, so none is served. Callers can errors.Is against it to
// distinguish "the cache is degraded" from document-level errors.
var ErrDegraded = errors.New("remote: degraded: server unreachable")

// Options configures a Cache.
type Options struct {
	// Capacity bounds unique stored bytes; zero = unlimited.
	Capacity int64
	// Clock supplies time for TTL-deadline checks; nil = wall clock.
	// TTL deadlines originate on the server, so the clocks are
	// assumed synchronized (true in simulation, NTP-close in
	// production).
	Clock clock.Clock
	// Observer, when non-nil, receives the wire round-trip latency of
	// every miss (stage remote_rtt). The counters reach it through
	// RegisterMetrics, once for all the caches it serves.
	Observer *obs.Observer
	// Blobs, when non-nil, is the blob store the cache keeps its bytes
	// in, shared with every other cache built on it: the nodes of one
	// sidecar keep each document's head once. Each cache still charges
	// its own views at their full length (Capacity, Stats.BytesStored);
	// the bytes the store occupies are its BytesResident. Nil is a
	// store of the cache's own.
	Blobs *core.BlobStore
}

// Stats counts remote-cache activity.
type Stats struct {
	// Hits and Misses count read outcomes.
	Hits, Misses int64
	// CoalescedMisses counts reads that joined another goroutine's
	// in-flight fetch instead of issuing their own wire read.
	CoalescedMisses int64
	// Uncacheable counts reads whose result was not storable.
	Uncacheable int64
	// Invalidations counts entries dropped by server pushes.
	Invalidations int64
	// Evictions counts capacity-driven removals.
	Evictions int64
	// EventsForwarded counts hit-time operation forwards.
	EventsForwarded int64
	// TTLExpiries counts entries dropped because their server-issued
	// TTL deadline passed.
	TTLExpiries int64
	// BytesStored is the current unique content footprint, what
	// capacity charges: every view at its full length. What the views
	// occupy is their blob store's (Options.Blobs).
	BytesStored int64
	// Reconnects counts connection epochs after the first: each is
	// one successful reconnect the cache observed (one epoch flush).
	Reconnects int64
	// EpochFlushes counts entries flushed at reconnect because they
	// were cached under a connection epoch whose invalidation stream
	// was interrupted.
	EpochFlushes int64
	// DegradedErrors counts reads and writes refused or failed with
	// ErrDegraded while the server was unreachable.
	DegradedErrors int64
}

// quietBeforeYield is how long a cache must have gone without a read
// for the next one to yield the processor before it looks at the
// connection state (see Read).
const quietBeforeYield = time.Millisecond

// Cache is a client-side cache over a server.Client. Safe for
// concurrent use. mu ranks above every lock of the table.
type Cache struct {
	client *server.Client
	tab    *core.Table // entries; its closed flag is the cache's
	clk    clock.Clock
	obs    *obs.Observer

	lastRead atomic.Int64 // wall clock of the latest Read, UnixNano

	mu      sync.Mutex
	flushed uint64 // the client epoch whose reconnect flush has run
	stats   Stats  // BytesStored and Evictions are the table's
}

// New wraps client with a cache and registers the invalidation and
// connection-state handlers. The caller must not install its own
// OnInvalidate or OnStateChange handler on the client afterwards. For
// the resilience machinery to matter, dial the client with
// server.WithReconnect (and ideally server.WithCallTimeout).
func New(client *server.Client, opts Options) *Cache {
	c := &Cache{
		client:  client,
		tab:     core.NewTable(replace.NewGDS(), opts.Blobs),
		clk:     opts.Clock,
		obs:     opts.Observer,
		flushed: client.Epoch(), // the table is empty: nothing to flush
	}
	if c.clk == nil {
		c.clk = clock.Real{}
	}
	c.tab.Resize(opts.Capacity)
	client.OnInvalidate(c.onInvalidate)
	client.OnStateChange(c.onConnState)
	return c
}

// onConnState is the client's connection hook. A transition to
// StateConnected is a reconnect, and carries the new epoch: the
// invalidation stream was interrupted, so every entry cached under the
// previous epoch is suspect. The cache flushes the table with
// its drop-everything, which bumps every per-doc generation before it
// drops anything (so in-flight misses from before the drop cannot
// install) — re-verification by re-read: the next access re-fetches
// and re-caches under the new epoch. Nothing is replayed: the
// server-side notifiers died with the old connection, what they guarded
// has just been flushed, and the next miss on a key carries its
// subscription again. The calls of successive reconnects may run out of
// order; a late one never moves flushed back, so a successor whose own
// flush is still to come stays suspect.
func (c *Cache) onConnState(s server.ConnState, epoch uint64) {
	if s != server.StateConnected {
		return
	}
	c.mu.Lock()
	if c.tab.Closed() {
		c.mu.Unlock()
		return
	}
	c.stats.Reconnects++
	dropped := int64(c.tab.DropAll())
	c.stats.EpochFlushes += dropped
	c.flushed = max(c.flushed, epoch)
	o := c.obs
	c.mu.Unlock()
	if o != nil {
		o.Invalidations(obs.CauseDegraded, dropped)
	}
}

// suspectLocked reports whether cached entries are untrusted: the wire
// is down, or the connection that is up has not had its reconnect flush
// yet. State before Epoch, with c.mu held so flushed cannot move: a
// reconnect between the two reads shows up as an unflushed epoch, never
// as a flushed connection.
func (c *Cache) suspectLocked() bool {
	return c.client.State() != server.StateConnected || c.client.Epoch() != c.flushed
}

// RegisterMetrics publishes the counters of a sidecar's remote caches
// on o's registry under stable placeless_remote_* names, each the sum
// over nodes; placeless_remote_connection_state is the worst node's.
// The closures read the nodes at scrape time; the read path is
// untouched. Call it once per Observer.
func RegisterMetrics(o *obs.Observer, nodes ...*Cache) {
	nodes = slices.Clone(nodes)
	sum := func(read func(*Cache) int64) func() int64 {
		return func() (n int64) {
			for _, c := range nodes {
				n += read(c)
			}
			return n
		}
	}
	reg := o.Registry()
	reg.Counter("placeless_remote_hits_total",
		"Remote-cache reads served locally.", sum(func(c *Cache) int64 { return c.Stats().Hits }))
	reg.Counter("placeless_remote_misses_total",
		"Remote-cache reads that went over the wire.", sum(func(c *Cache) int64 { return c.Stats().Misses }))
	reg.Counter("placeless_remote_coalesced_misses_total",
		"Reads that joined another goroutine's in-flight wire fetch.", sum(func(c *Cache) int64 { return c.Stats().CoalescedMisses }))
	reg.Counter("placeless_remote_uncacheable_total",
		"Wire reads whose result was not storable.", sum(func(c *Cache) int64 { return c.Stats().Uncacheable }))
	reg.Counter("placeless_remote_invalidations_total",
		"Entries dropped by server invalidation pushes.", sum(func(c *Cache) int64 { return c.Stats().Invalidations }))
	reg.Counter("placeless_remote_evictions_total",
		"Capacity-driven removals.", sum(func(c *Cache) int64 { return c.Stats().Evictions }))
	reg.Counter("placeless_remote_events_forwarded_total",
		"Hit-time operation events forwarded to the server.", sum(func(c *Cache) int64 { return c.Stats().EventsForwarded }))
	reg.Counter("placeless_remote_ttl_expiries_total",
		"Entries dropped because their server-issued TTL deadline passed.", sum(func(c *Cache) int64 { return c.Stats().TTLExpiries }))
	reg.Counter("placeless_remote_reconnects_total",
		"Successful reconnects observed (one epoch flush each; no subscription is replayed).", sum(func(c *Cache) int64 { return c.Stats().Reconnects }))
	reg.Counter("placeless_remote_epoch_flushes_total",
		"Entries flushed at reconnect because their epoch's invalidation stream was interrupted.", sum(func(c *Cache) int64 { return c.Stats().EpochFlushes }))
	reg.Counter("placeless_remote_frames_batched_total",
		"Wire frames that shared a multi-frame writev batch on the remote caches' connections.",
		sum(func(c *Cache) int64 { return c.client.FramesBatched() }))
	reg.Counter("placeless_remote_degraded_errors_total",
		"Reads/writes refused or failed with ErrDegraded while the server was unreachable.", sum(func(c *Cache) int64 { return c.Stats().DegradedErrors }))
	reg.Gauge("placeless_remote_connection_state",
		"State of the worst wire behind the remote caches: 1 connected, 0 disconnected, -1 closed.",
		func() int64 {
			worst := int64(1)
			for _, c := range nodes {
				switch c.client.State() {
				case server.StateDisconnected:
					worst = min(worst, 0)
				case server.StateClosed:
					worst = -1
				}
			}
			return worst
		})
	reg.Gauge("placeless_remote_bytes_stored",
		"Current unique content footprint of the remote caches.", sum(func(c *Cache) int64 { return c.Stats().BytesStored }))
	reg.Gauge("placeless_remote_entries",
		"Current number of remote-cache entries.",
		sum(func(c *Cache) int64 { return int64(c.Len()) }))
}

// onInvalidate handles a server push: user == "" invalidates every
// user's entry for the document. Either way the table bumps the
// document's generation first and visits only the document's keys.
func (c *Cache) onInvalidate(doc, user string) {
	var n int
	if user == "" {
		n, _, _ = c.tab.DropDoc(doc)
	} else {
		n, _ = c.tab.DropUser(doc, user)
	}
	c.mu.Lock()
	c.stats.Invalidations += int64(n)
	c.mu.Unlock()
}

// Stats returns a counter snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.BytesStored = c.tab.BytesStored()
	st.Evictions = c.tab.Evictions()
	return st
}

// Suspect reports whether the cache is inside the post-reconnect
// suspect window: the connection dropped and the epoch flush of its
// successor has not yet run, so cached entries are not trusted.
// Simulations wait for this to clear before asserting freshness.
func (c *Cache) Suspect() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.suspectLocked()
}

// ConnState reports the state of the wire behind the cache's client.
// Cluster routing uses it to describe each peer in status output; it
// is advisory (routing itself reacts to typed errors, not this probe).
func (c *Cache) ConnState() server.ConnState {
	return c.client.State()
}

// DownSince reports when the wire behind the cache's client went down,
// or the zero time while it is up.
func (c *Cache) DownSince() time.Time { return c.client.DownSince() }

// Audit checks the table's index and its holds in the blob store
// (core.Table.Audit); only a quiescent cache reads clean.
func (c *Cache) Audit() error { return c.tab.Audit() }

// Len reports cached entry count.
func (c *Cache) Len() int { return c.tab.Len() }

// Contains reports whether (doc, user) is cached.
func (c *Cache) Contains(doc, user string) bool { return c.tab.Contains(core.Key(doc, user)) }

// Read is ReadBody with the body as one slice: a hit on a view that
// shares its head is copied into one, any other answer is the table's
// or the wire's own bytes, which must not be modified.
func (c *Cache) Read(doc, user string) ([]byte, error) {
	body, err := c.ReadBody(doc, user)
	return body.Bytes(), err
}

// ReadBody returns the user's view of the document, served locally when
// a valid entry exists, in the parts the table holds it: a view that
// shares its head with the document's other views is that head, then
// its tail. The bytes are shared and must not be modified: a hit, a
// coalesced follower and the miss that installed all return the
// table's own blob or the wire's allocation the table keeps (the rule
// core.Table.Lookup and core.Cache.ReadSharedHit state), so a write
// into them would reach every later reader of the key. While the
// server is unreachable every read returns ErrDegraded. A
// CacheWithEvents hit is served only once the origin has taken its
// getInputStream event; a forward that fails fails the read.
func (c *Cache) ReadBody(doc, user string) (stream.Body, error) {
	// A read that follows a quiet spell lets connection events that are
	// already queued run before it decides anything. A process that was
	// parked wakes with a batch of poller events and the runtime runs
	// the batch newest first: a dead server's EOF and the application's
	// next request arrive together, and without the yield the request is
	// answered as a hit while the connection's death notice sits one
	// place behind it in the run queue — the one answer an outage
	// forbids. (It is also what made a restart probe read
	// "origin is back" milliseconds after the kill; see EXPERIMENTS.md,
	// "Fourth ledger-picked change".) Reads in close succession skip
	// it: the yield costs about a microsecond of a six-microsecond hit,
	// and a process that busy is draining its poller all the time.
	if now := time.Now().UnixNano(); now-c.lastRead.Swap(now) > int64(quietBeforeYield) {
		runtime.Gosched()
	}
	if c.tab.Closed() {
		return stream.Body{}, ErrClosed
	}
	c.mu.Lock()
	down := c.client.State() != server.StateConnected
	suspect := down || c.client.Epoch() != c.flushed // suspectLocked, reusing the State read
	c.mu.Unlock()

	k := core.Key(doc, user)
	if e, data := c.tab.Lookup(k); e != nil {
		switch {
		case !e.Valid(c.clk.Now()):
			// A server-issued TTL deadline, the one verifier that can
			// cross the wire, has passed; it is honored before serving —
			// degraded or not.
			if c.tab.DropIf(k, e) {
				c.count(&c.stats.TTLExpiries)
			}
		case suspect:
			// The wire is down, or back up but this entry predates the
			// reconnect epoch flush (or the flush is still running):
			// never served. Down, the read fails below; up, it is a miss
			// and re-fetches rather than risk serving content
			// invalidated during the outage.
		case c.tab.Confirm(k, e):
			if e.Cacheability == property.CacheWithEvents {
				// The origin's event-only properties (an audit trail)
				// must see every read: a hit whose event is lost is not
				// served.
				if err := c.client.ForwardEvent(doc, user, event.GetInputStream.String()); err != nil {
					return stream.Body{}, c.wireErr(err)
				}
				c.count(&c.stats.EventsForwarded)
			}
			c.count(&c.stats.Hits)
			return data, nil
		}
	}
	if down {
		// Fail fast instead of paying a doomed call.
		return stream.Body{}, c.degradedErr()
	}
	// One wire fetch per key at a time: a remote read is the most
	// expensive operation in this deployment (a round trip to the
	// Placeless servers), so K simultaneous first accesses to a popular
	// document cost one round trip, not K.
	data, _, shared, err := c.tab.Do(k, func() (stream.Body, core.EntryInfo, error) {
		data, err := c.miss(doc, user)
		return stream.Body{Head: data}, core.EntryInfo{}, err
	})
	if shared {
		c.count(&c.stats.CoalescedMisses)
	}
	return data, err
}

// count adds one to a counter of c.stats.
func (c *Cache) count(n *int64) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

// degradedErr counts and builds the refusal of a read with the wire down.
func (c *Cache) degradedErr() error {
	c.count(&c.stats.DegradedErrors)
	return fmt.Errorf("%w (down since %s)", ErrDegraded, c.client.DownSince().Format(time.RFC3339))
}

// miss fetches through the wire, subscribing in the same frame, and
// stores the entry per its cacheability.
func (c *Cache) miss(doc, user string) ([]byte, error) {
	// Snapshot the invalidation generation, the client epoch and
	// whether the cache is suspect, so a push — or a disconnect/
	// reconnect cycle — while the remote read is in flight prevents
	// installing a stale entry (the load/install race; the table's
	// Install checks the generation).
	k := core.Key(doc, user)
	c.mu.Lock()
	gen := c.tab.Gen(doc)
	ep := c.client.Epoch()
	sus := c.suspectLocked()
	c.mu.Unlock()

	// The subscription rides every miss: the server installs the
	// notifiers (a map lookup when this connection has them already) and
	// then executes the read, in one handler, so they provably predate
	// the snapshot it returns — every change after the fetched bytes is
	// pushed to us. Subscribing after the fetch would leave the classic
	// callback-race window (a change between the two is pushed to no one)
	// and the entry would be stale until the NEXT change, not just by one
	// access.
	var tWire time.Time
	if c.obs != nil {
		tWire = time.Now()
	}
	data, meta, subLive, err := c.client.ReadSubscribe(doc, user)
	if c.obs != nil {
		c.obs.ObserveStage(obs.StageRemoteRTT, time.Since(tWire))
	}
	if err != nil {
		return nil, c.wireErr(err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Misses++
	// The blob is keyed by the signature the origin computed and shipped
	// under the frame checksum; this cache never hashes a body. A
	// storable response that arrives without one cannot be shared
	// safely, so it is served like an uncacheable one.
	if meta.Cacheability == property.Uncacheable || meta.Signature.IsZero() {
		c.stats.Uncacheable++
		return data, nil
	}
	if !subLive || sus || c.suspectLocked() || c.client.Epoch() != ep {
		// The server could not install the notifiers (the next miss
		// asks again), the fetch started inside the suspect window, or
		// the connection was lost underneath us (its notifiers and any
		// pushes with them): serve uncached. Invalidated mid-read is the
		// table's to refuse.
		return data, nil
	}
	// A shipped TTL deadline becomes the verifier the origin held.
	var verifiers []property.Verifier
	if !meta.Expiry.IsZero() {
		verifiers = []property.Verifier{property.TTLVerifier{Expiry: meta.Expiry}}
	}
	// The table keeps the body the wire decoded, and the reader shares
	// it. A view the origin reported as a head and a tail goes in as
	// those parts: it keeps only a copy of its tail when the table
	// holds that head, and the document's first such view keeps both
	// parts where the wire decoded them, its head as the head.
	body := stream.Body{Head: data}
	if n := meta.HeadLen; n > 0 {
		body = stream.Body{Head: data[:n:n], Tail: data[n:], HeadSig: meta.HeadSig}
	}
	c.tab.Install(k, &core.Entry{
		Doc: doc, User: user,
		Signature:    meta.Signature,
		Cost:         meta.Cost,
		Cacheability: meta.Cacheability,
		Verifiers:    verifiers,
	}, body, gen, body.HeadSig)
	return data, nil
}

// Write pushes content through the wire; the server's notifiers push
// back the invalidation for our own cached entries. While the server
// is unreachable writes fail with ErrDegraded (there is no write-back
// buffering).
func (c *Cache) Write(doc, user string, data []byte) error {
	if c.tab.Closed() {
		return ErrClosed
	}
	if err := c.client.Write(doc, user, data); err != nil {
		return c.wireErr(err)
	}
	return nil
}

// wireErr is the one place an outage is told from a document-level
// failure: a wire that died or timed out under the call is ErrDegraded
// (counted), a client closed underneath the cache is ErrClosed, and
// anything else — the server's answer — is returned as it came. Callers
// above the cache (the cluster router, plcached, the simulator) test
// for those two and nothing of the wire's.
func (c *Cache) wireErr(err error) error {
	switch {
	case errors.Is(err, server.ErrDisconnected), errors.Is(err, server.ErrTimeout):
		c.count(&c.stats.DegradedErrors)
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	case errors.Is(err, server.ErrClientClosed):
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return err
}

// Close clears the cache; the underlying client remains usable and
// must be closed separately.
func (c *Cache) Close() { c.tab.Close() }
