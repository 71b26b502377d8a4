// Package remote implements a client-side document cache over the
// Placeless TCP protocol: the deployment the paper measures, where the
// cache runs "on the machine where applications are run" while the
// Placeless servers (and the repositories behind them) are remote.
//
// Consistency is push-based: a key's first read carries its
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
// while disconnected the cache is in an explicit degraded mode
// (DegradedPolicy: fail-fast, or serve-stale within a bounded
// staleness TTL), and on reconnect it flushes everything cached under
// the old connection epoch, because invalidations may have been lost in
// between, and forgets every subscription, because they died with the
// connection: each key subscribes again on its next read. See DESIGN.md
// §9 for the failure model.
package remote

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"placeless/internal/clock"
	"placeless/internal/event"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/replace"
	"placeless/internal/server"
	"placeless/internal/sig"
)

// ErrClosed is returned by operations on a closed cache.
var ErrClosed = errors.New("remote: cache is closed")

// ErrDegraded is returned while the server is unreachable and the
// degraded-mode policy refuses the read: always for misses, and for
// hits under FailFast or past the ServeStale bound. Callers can
// errors.Is against it to distinguish "the cache is degraded" from
// document-level errors.
var ErrDegraded = errors.New("remote: degraded: server unreachable")

// DegradedPolicy selects what the cache does with reads while the
// connection to the server is down — the consistency-vs-availability
// choice the paper's disconnected-operation motivation leaves to the
// deployment.
type DegradedPolicy int

const (
	// FailFast (the default) refuses every read with ErrDegraded
	// while disconnected: without the invalidation stream no cached
	// entry can be proven fresh, so none is served.
	FailFast DegradedPolicy = iota
	// ServeStale serves cached hits while disconnected, accepting a
	// staleness window bounded by Options.StaleTTL (measured from the
	// moment of disconnect). Misses still fail with ErrDegraded.
	ServeStale
)

// String names the policy ("fail-fast"/"serve-stale").
func (p DegradedPolicy) String() string {
	if p == ServeStale {
		return "serve-stale"
	}
	return "fail-fast"
}

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
	// every miss (stage remote_rtt) and the cache registers its
	// counters under stable placeless_remote_* names.
	Observer *obs.Observer
	// DegradedPolicy selects fail-fast vs serve-stale behavior while
	// the server is unreachable (default FailFast).
	DegradedPolicy DegradedPolicy
	// StaleTTL bounds the staleness window ServeStale accepts,
	// measured from the disconnect: hits older than that fail with
	// ErrDegraded. Zero means no bound — every cached entry is
	// servable for the whole outage, which trades unbounded staleness
	// for availability; set a bound in production.
	StaleTTL time.Duration
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
	// BytesStored is the current unique content footprint.
	BytesStored int64
	// Reconnects counts connection epochs after the first: each is
	// one successful reconnect the cache observed (epoch flush,
	// subscriptions forgotten).
	Reconnects int64
	// EpochFlushes counts entries flushed at reconnect because they
	// were cached under a connection epoch whose invalidation stream
	// was interrupted.
	EpochFlushes int64
	// StaleServed counts hits served while disconnected under the
	// ServeStale policy (within the StaleTTL bound).
	StaleServed int64
	// DegradedErrors counts reads and writes refused or failed with
	// ErrDegraded while the server was unreachable.
	DegradedErrors int64
}

// entry is one cached (doc, user) version.
type entry struct {
	doc, user    string
	signature    sig.Signature
	size         int64
	cost         time.Duration
	cacheability property.Cacheability
	expires      time.Time // zero = no TTL
}

// blob is signature-shared storage.
type blob struct {
	data []byte
	refs int
}

// quietBeforeYield is how long a cache must have gone without a read
// for the next one to yield the processor before it looks at the
// connection state (see Read).
const quietBeforeYield = time.Millisecond

// Cache is a client-side cache over a server.Client. Safe for
// concurrent use.
type Cache struct {
	client *server.Client

	lastRead atomic.Int64 // wall clock of the latest Read, UnixNano

	mu            sync.Mutex
	closed        bool
	entries       map[string]*entry
	byDoc         map[string]map[string]struct{} // doc → keys of its entries
	blobs         map[sig.Signature]*blob
	policy        replace.Policy
	subscribed    map[string]bool    // keys with notifiers on the live connection
	gens          map[string]uint64  // per-doc invalidation generation
	flights       map[string]*flight // in-progress misses (single-flight)
	capacity      int64
	clk           clock.Clock
	obs           *obs.Observer
	degraded      DegradedPolicy
	staleTTL      time.Duration
	degradedSince time.Time // when the current outage began (zero = up)
	connEpoch     uint64    // cache-side epoch, bumped per observed reconnect
	suspect       bool      // conn dropped; entries unservable until the epoch flush
	stats         Stats
}

// flight is one in-progress wire fetch; concurrent misses on the same
// key block on done and share the leader's result instead of issuing
// duplicate remote reads (single-flight, mirroring internal/core).
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

func key(doc, user string) string { return doc + "\x00" + user }

// New wraps client with a cache and registers the invalidation,
// reconnect, and connection-state handlers. The caller must not
// install its own OnInvalidate handler on the client afterwards. For
// the resilience machinery to matter, dial the client with
// server.WithReconnect (and ideally server.WithCallTimeout).
func New(client *server.Client, opts Options) *Cache {
	c := &Cache{
		client:     client,
		entries:    make(map[string]*entry),
		byDoc:      make(map[string]map[string]struct{}),
		blobs:      make(map[sig.Signature]*blob),
		policy:     replace.NewGDS(),
		subscribed: make(map[string]bool),
		gens:       make(map[string]uint64),
		flights:    make(map[string]*flight),
		clk:        opts.Clock,
		obs:        opts.Observer,
		degraded:   opts.DegradedPolicy,
		staleTTL:   opts.StaleTTL,
	}
	if c.clk == nil {
		c.clk = clock.Real{}
	}
	c.capacity = opts.Capacity
	if c.obs != nil {
		c.registerMetrics(c.obs)
	}
	client.OnInvalidate(c.onInvalidate)
	client.OnStateChange(c.onConnState)
	client.OnReconnect(c.onReconnect)
	return c
}

// onConnState tracks outage boundaries so serve-stale reads can bound
// their staleness window from the moment of disconnect.
func (c *Cache) onConnState(s server.ConnState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch s {
	case server.StateDisconnected:
		if c.degradedSince.IsZero() {
			c.degradedSince = c.clk.Now()
		}
		// Everything cached so far belongs to an epoch whose
		// invalidation stream just broke; nothing may be served as a
		// normal hit again until the reconnect flush has run.
		c.suspect = true
	case server.StateConnected:
		c.degradedSince = time.Time{}
	}
}

// onReconnect runs after the client re-established its connection:
// the invalidation stream was interrupted, so every entry cached
// under the previous epoch is suspect. The cache bumps its epoch and
// all per-doc generations (so in-flight misses from before the drop
// cannot install), flushes the whole entry set (re-verification by
// re-read: the next access re-fetches and re-caches under the new
// epoch) and forgets every subscription — the server-side notifiers
// died with the old connection. Nothing is replayed: what those
// subscriptions guarded has just been flushed, and the next miss on a
// key carries its subscription again.
func (c *Cache) onReconnect(epoch uint64) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.connEpoch++
	c.stats.Reconnects++
	flushed := int64(len(c.entries))
	for k := range c.entries {
		c.dropLocked(k)
	}
	c.stats.EpochFlushes += flushed
	for doc := range c.gens {
		c.gens[doc]++
	}
	clear(c.subscribed)
	// The flush ends the suspect window — but only the hook of the
	// connection that is live now may say so: a drop since re-armed the
	// flag for the next hook, and a hook that runs late must not lift
	// it for a successor whose own flush is still to come. (State, then
	// Epoch: a connected state read after this epoch's drop belongs to
	// a later epoch.)
	if c.client.State() == server.StateConnected && c.client.Epoch() == epoch {
		c.suspect = false
	}
	o := c.obs
	c.mu.Unlock()
	if o != nil {
		o.Invalidations(obs.CauseDegraded, flushed)
	}
}

// registerMetrics publishes the remote cache's counters on o's
// registry under stable placeless_remote_* names. The closures take
// the cache mutex at scrape time; the read path is untouched.
func (c *Cache) registerMetrics(o *obs.Observer) {
	reg := o.Registry()
	counter := func(read func(*Stats) int64) func() int64 {
		return func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return read(&c.stats)
		}
	}
	reg.Counter("placeless_remote_hits_total",
		"Remote-cache reads served locally.", counter(func(s *Stats) int64 { return s.Hits }))
	reg.Counter("placeless_remote_misses_total",
		"Remote-cache reads that went over the wire.", counter(func(s *Stats) int64 { return s.Misses }))
	reg.Counter("placeless_remote_coalesced_misses_total",
		"Reads that joined another goroutine's in-flight wire fetch.", counter(func(s *Stats) int64 { return s.CoalescedMisses }))
	reg.Counter("placeless_remote_uncacheable_total",
		"Wire reads whose result was not storable.", counter(func(s *Stats) int64 { return s.Uncacheable }))
	reg.Counter("placeless_remote_invalidations_total",
		"Entries dropped by server invalidation pushes.", counter(func(s *Stats) int64 { return s.Invalidations }))
	reg.Counter("placeless_remote_evictions_total",
		"Capacity-driven removals.", counter(func(s *Stats) int64 { return s.Evictions }))
	reg.Counter("placeless_remote_events_forwarded_total",
		"Hit-time operation events forwarded to the server.", counter(func(s *Stats) int64 { return s.EventsForwarded }))
	reg.Counter("placeless_remote_ttl_expiries_total",
		"Entries dropped because their server-issued TTL deadline passed.", counter(func(s *Stats) int64 { return s.TTLExpiries }))
	reg.Counter("placeless_remote_reconnects_total",
		"Successful reconnects observed (one epoch flush each; subscriptions are forgotten, not replayed).", counter(func(s *Stats) int64 { return s.Reconnects }))
	reg.Counter("placeless_remote_epoch_flushes_total",
		"Entries flushed at reconnect because their epoch's invalidation stream was interrupted.", counter(func(s *Stats) int64 { return s.EpochFlushes }))
	reg.Counter("placeless_remote_frames_batched_total",
		"Wire frames that shared a multi-frame writev batch on this client's connection.",
		func() int64 { return c.client.FramesBatched() })
	reg.Counter("placeless_remote_stale_served_total",
		"Hits served while disconnected under the serve-stale policy.", counter(func(s *Stats) int64 { return s.StaleServed }))
	reg.Counter("placeless_remote_degraded_errors_total",
		"Reads/writes refused or failed with ErrDegraded while the server was unreachable.", counter(func(s *Stats) int64 { return s.DegradedErrors }))
	reg.Gauge("placeless_remote_connection_state",
		"State of the wire behind the remote cache: 1 connected, 0 disconnected, -1 closed.",
		func() int64 {
			switch c.client.State() {
			case server.StateConnected:
				return 1
			case server.StateDisconnected:
				return 0
			default:
				return -1
			}
		})
	reg.Gauge("placeless_remote_bytes_stored",
		"Current unique content footprint of the remote cache.", counter(func(s *Stats) int64 { return s.BytesStored }))
	reg.Gauge("placeless_remote_entries",
		"Current number of remote-cache entries.",
		func() int64 { return int64(c.Len()) })
}

// onInvalidate handles a server push: user == "" invalidates every
// user's entry for the document.
func (c *Cache) onInvalidate(doc, user string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[doc]++
	if user != "" {
		if _, ok := c.entries[key(doc, user)]; ok {
			c.stats.Invalidations++
			c.dropLocked(key(doc, user))
		}
		return
	}
	// Only this document's keys: a write must not cost a walk of every
	// entry the node holds. (Deleting from a map while ranging over it
	// is defined.)
	for k := range c.byDoc[doc] {
		c.stats.Invalidations++
		c.dropLocked(k)
	}
}

// Stats returns a counter snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Suspect reports whether the cache is inside the post-reconnect
// suspect window: the connection dropped and the epoch flush of its
// successor has not yet run, so cached entries are not trusted.
// Simulations wait for this to clear (together with a drained push
// queue) before asserting freshness.
func (c *Cache) Suspect() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.suspect
}

// ConnState reports the state of the wire behind the cache's client.
// Cluster routing uses it to describe each peer in status output; it
// is advisory (routing itself reacts to typed errors, not this probe).
func (c *Cache) ConnState() server.ConnState {
	return c.client.State()
}

// Len reports cached entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Contains reports whether (doc, user) is cached.
func (c *Cache) Contains(doc, user string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key(doc, user)]
	return ok
}

// Read returns the user's view of the document, served locally when a
// valid entry exists. While the server is unreachable the cache is in
// degraded mode: under FailFast every read returns ErrDegraded; under
// ServeStale cached hits are served within the StaleTTL bound and
// everything else returns ErrDegraded.
func (c *Cache) Read(doc, user string) ([]byte, error) {
	// A read that follows a quiet spell lets connection events that are
	// already queued run before it decides anything. A process that was
	// parked wakes with a batch of poller events and the runtime runs
	// the batch newest first: a dead server's EOF and the application's
	// next request arrive together, and without the yield the request is
	// answered as a hit while the connection's death notice sits one
	// place behind it in the run queue — under FailFast the one answer
	// the policy forbids. (It is also what made a restart probe read
	// "origin is back" milliseconds after the kill; see EXPERIMENTS.md,
	// "Fourth ledger-picked change".) Reads in close succession skip
	// it: the yield costs about a microsecond of a six-microsecond hit,
	// and a process that busy is draining its poller all the time.
	if now := time.Now().UnixNano(); now-c.lastRead.Swap(now) > int64(quietBeforeYield) {
		runtime.Gosched()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	degraded := c.client.State() != server.StateConnected
	if degraded && c.degradedSince.IsZero() {
		// The cache missed the transition (e.g. it was constructed
		// over an already-down client); the outage starts now.
		c.degradedSince = c.clk.Now()
	}
	k := key(doc, user)
	if e := c.entries[k]; e != nil {
		// Server-issued TTL deadlines are the one verifier that can
		// cross the wire; honor them before serving — degraded or not.
		if !e.expires.IsZero() && c.clk.Now().After(e.expires) {
			c.stats.TTLExpiries++
			c.dropLocked(k)
		} else if degraded {
			if c.degraded == ServeStale && c.withinStaleBoundLocked() {
				if b := c.blobs[e.signature]; b != nil {
					c.stats.Hits++
					c.stats.StaleServed++
					c.policy.Access(k)
					data := b.data
					c.mu.Unlock()
					// No hit-time event forwarding while disconnected:
					// the wire is down and the forward would only fail.
					out := make([]byte, len(data))
					copy(out, data)
					return out, nil
				}
			}
			return nil, c.degradedErrLocked()
		} else if c.suspect {
			// The wire is back up but this entry predates the reconnect
			// epoch flush (or the flush is still running): treat it as
			// a miss and re-fetch rather than risk serving content
			// invalidated during the outage.
		} else if b := c.blobs[e.signature]; b != nil {
			c.stats.Hits++
			c.policy.Access(k)
			data := b.data
			forward := e.cacheability == property.CacheWithEvents
			c.mu.Unlock()
			if forward {
				if err := c.client.ForwardEvent(doc, user, event.GetInputStream.String()); err == nil {
					c.mu.Lock()
					c.stats.EventsForwarded++
					c.mu.Unlock()
				}
			}
			out := make([]byte, len(data))
			copy(out, data)
			return out, nil
		}
	}
	if degraded {
		// Miss with the wire down: nothing local to serve under
		// either policy — fail fast instead of paying a doomed call.
		return nil, c.degradedErrLocked()
	}
	c.mu.Unlock()
	return c.coalescedMiss(doc, user)
}

// degradedErrLocked counts and builds the degraded-mode refusal; it
// releases the cache lock.
func (c *Cache) degradedErrLocked() error {
	c.stats.DegradedErrors++
	since := c.degradedSince
	c.mu.Unlock()
	return fmt.Errorf("%w (policy %v, down since %v)", ErrDegraded, c.degraded, since)
}

// withinStaleBoundLocked reports whether a serve-stale hit is still
// inside the bounded staleness window.
func (c *Cache) withinStaleBoundLocked() bool {
	if c.staleTTL <= 0 {
		return true // unbounded by configuration
	}
	return !c.clk.Now().After(c.degradedSince.Add(c.staleTTL))
}

// coalescedMiss funnels concurrent misses on one key through a single
// wire fetch: the first caller becomes the leader and runs the real
// miss; later callers block on the flight and copy its result. A
// remote read is the most expensive operation in this deployment (a
// round trip to the Placeless servers), so K simultaneous first
// accesses to a popular document cost one round trip, not K.
func (c *Cache) coalescedMiss(doc, user string) ([]byte, error) {
	k := key(doc, user)
	c.mu.Lock()
	if f := c.flights[k]; f != nil {
		c.stats.CoalescedMisses++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		out := make([]byte, len(f.data))
		copy(out, f.data)
		return out, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	c.mu.Unlock()

	data, err := c.miss(doc, user)

	// Deregister before publishing so a post-failure retry starts a
	// fresh flight rather than joining this dead one.
	c.mu.Lock()
	delete(c.flights, k)
	c.mu.Unlock()
	f.data, f.err = data, err
	close(f.done)
	return data, err
}

// miss fetches through the wire — subscribing in the same frame when
// the key holds no subscription — and stores the entry per its
// cacheability.
func (c *Cache) miss(doc, user string) ([]byte, error) {
	// Snapshot the invalidation generation, connection epoch, and
	// suspect flag so a push — or a disconnect/reconnect cycle —
	// while the remote read is in flight prevents installing a stale
	// entry (the load/install race; see internal/core's equivalent
	// guard and its regression test). The suspect flag must be
	// sampled here, not only at install time: a read that leaves
	// between the reconnect and the epoch flush can travel without its
	// subscription (the key still counts as subscribed, on a connection
	// that is gone), and a change in that gap is pushed to no one — by
	// install time the flush has run and suspect is down again, but
	// the fetched bytes predate a push that never came.
	c.mu.Lock()
	gen := c.gens[doc]
	ep := c.connEpoch
	sus := c.suspect
	k := key(doc, user)
	needSub := !c.subscribed[k]
	c.mu.Unlock()

	// The subscription rides the read: the server installs the
	// notifiers and then executes the read, in one handler, so they
	// provably predate the snapshot it returns — every change after the
	// fetched bytes is pushed to us. Subscribing after the fetch would
	// leave the classic callback-race window (a change between the two
	// is pushed to no one) and the entry would be stale until the NEXT
	// change, not just by one access.
	var (
		data    []byte
		meta    server.ReadMeta
		err     error
		subLive = true
		tWire   time.Time
	)
	if c.obs != nil {
		tWire = time.Now()
	}
	if needSub {
		data, meta, subLive, err = c.client.ReadSubscribe(doc, user)
	} else {
		data, meta, err = c.client.Read(doc, user)
	}
	if c.obs != nil {
		c.obs.ObserveStage(obs.StageRemoteRTT, time.Since(tWire))
	}
	if err != nil {
		if errors.Is(err, server.ErrDisconnected) || errors.Is(err, server.ErrTimeout) {
			// The wire died under this read: surface it as the typed
			// degraded error so callers can distinguish an outage
			// from a document-level failure.
			c.mu.Lock()
			c.stats.DegradedErrors++
			if c.degradedSince.IsZero() {
				c.degradedSince = c.clk.Now()
			}
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrDegraded, err)
		}
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Misses++
	if c.closed {
		return data, nil
	}
	if needSub && subLive && c.connEpoch == ep {
		// Recorded only under the epoch the read was sent in: after a
		// reconnect flush the notifiers this read installed may sit on
		// a connection that is gone.
		c.subscribed[k] = true
	}
	// The blob is keyed by the signature the origin computed and shipped
	// under the frame checksum; this cache never hashes a body. A
	// storable response that arrives without one cannot be shared
	// safely, so it is served like an uncacheable one.
	if meta.Cacheability == property.Uncacheable || meta.Signature.IsZero() {
		c.stats.Uncacheable++
		return data, nil
	}
	if !subLive || sus || c.gens[doc] != gen || c.connEpoch != ep || c.suspect {
		// The server could not install the notifiers (the key stays
		// unsubscribed and the next miss asks again), the fetch started
		// inside the suspect window, it was invalidated mid-read, or
		// the connection was lost underneath us (pushes may have been
		// missed): serve uncached.
		return data, nil
	}
	c.dropLocked(k)
	s := meta.Signature
	b := c.blobs[s]
	if b == nil {
		b = &blob{data: append([]byte{}, data...)}
		c.blobs[s] = b
		c.stats.BytesStored += int64(len(data))
	}
	b.refs++
	keys := c.byDoc[doc]
	if keys == nil {
		keys = make(map[string]struct{})
		c.byDoc[doc] = keys
	}
	keys[k] = struct{}{}
	c.entries[k] = &entry{
		doc: doc, user: user, signature: s,
		size: int64(len(data)), cost: meta.Cost,
		cacheability: meta.Cacheability,
		expires:      meta.Expiry,
	}
	c.policy.Insert(k, int64(len(data)), meta.Cost)
	c.evictLocked()
	return data, nil
}

// Write pushes content through the wire; the server's notifiers push
// back the invalidation for our own cached entries. While the server
// is unreachable writes fail with ErrDegraded (there is no write-back
// buffering).
func (c *Cache) Write(doc, user string, data []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.mu.Unlock()
	err := c.client.Write(doc, user, data)
	if err != nil && (errors.Is(err, server.ErrDisconnected) || errors.Is(err, server.ErrTimeout)) {
		c.mu.Lock()
		c.stats.DegradedErrors++
		c.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	return err
}

// dropLocked removes an entry and its blob reference.
func (c *Cache) dropLocked(k string) {
	e, ok := c.entries[k]
	if !ok {
		return
	}
	delete(c.entries, k)
	keys := c.byDoc[e.doc]
	delete(keys, k)
	if len(keys) == 0 {
		delete(c.byDoc, e.doc)
	}
	c.policy.Remove(k)
	if b := c.blobs[e.signature]; b != nil {
		b.refs--
		if b.refs <= 0 {
			delete(c.blobs, e.signature)
			c.stats.BytesStored -= int64(len(b.data))
		}
	}
}

// evictLocked enforces the byte budget.
func (c *Cache) evictLocked() {
	if c.capacity <= 0 {
		return
	}
	for c.stats.BytesStored > c.capacity {
		victim, ok := c.policy.Victim()
		if !ok {
			return
		}
		c.stats.Evictions++
		c.dropLocked(victim)
	}
}

// Close clears the cache; the underlying client remains usable and
// must be closed separately.
func (c *Cache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.entries = make(map[string]*entry)
	c.byDoc = make(map[string]map[string]struct{})
	c.blobs = make(map[sig.Signature]*blob)
	c.stats.BytesStored = 0
}
