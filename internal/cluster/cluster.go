package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"placeless/internal/obs"
	"placeless/internal/remote"
	"placeless/internal/stream"
)

// ErrNoNodes is returned by reads and writes while the ring is empty.
var ErrNoNodes = errors.New("cluster: no nodes in the ring")

// Peer is what the cluster routes to: one node's cache client.
// *remote.Cache is the production implementation; tests substitute
// fakes. ReadBody is Read with the body in the parts the peer holds
// it, for a caller that can send two parts. The bytes either returns
// may be the peer's own cached copy, shared with every other reader:
// callers must not modify them.
type Peer interface {
	Read(doc, user string) ([]byte, error)
	ReadBody(doc, user string) (stream.Body, error)
	Write(doc, user string, data []byte) error
}

// defaultReplicas is the owner-set size when Options.Replicas is unset;
// routing resolves that many owners without allocating.
const defaultReplicas = 2

// Options configures a Cache.
type Options struct {
	// Replicas is the owner-set size per key (default 2): reads fail
	// over across the set, so one node's death degrades only keys
	// whose whole owner set is down.
	Replicas int
	// VNodes is the virtual-node count per member (default
	// DefaultVNodes).
	VNodes int
	// Observer, when non-nil, registers the cluster's counters under
	// stable placeless_cluster_* names.
	Observer *obs.Observer
}

// Stats counts cluster-level routing activity. Per-node cache
// behavior (hits, invalidations, epochs) lives in each peer's own
// remote.Stats; remote.RegisterMetrics sums it over the nodes.
type Stats struct {
	// Reads and Writes count operations the ring answered: served by
	// an owner, or failed with a document-level error. An operation no
	// owner could serve counts in DegradedErrors only.
	Reads, Writes int64
	// Failovers counts operations that skipped at least one degraded
	// owner before succeeding on a later replica.
	Failovers int64
	// DegradedErrors counts operations refused because every owner in
	// the key's replica set was degraded.
	DegradedErrors int64
	// Rebalances counts ring membership changes (joins + leaves).
	Rebalances int64
}

// Cache routes reads and writes across a consistent-hash ring of
// cache nodes. Safe for concurrent use; membership changes serialize
// with routing but not with in-flight peer calls (a call racing a
// RemoveNode sees the peer's own typed error and fails over).
type Cache struct {
	mu    sync.Mutex
	ring  *Ring
	peers map[string]Peer
	stats Stats
}

// New builds an empty cluster cache; add nodes with AddNode.
func New(opts Options) *Cache {
	if opts.Replicas <= 0 {
		opts.Replicas = defaultReplicas
	}
	c := &Cache{
		ring:  NewRing(opts.Replicas, opts.VNodes),
		peers: make(map[string]Peer),
	}
	if opts.Observer != nil {
		c.registerMetrics(opts.Observer)
	}
	return c
}

// Replicas returns the configured owner-set size.
func (c *Cache) Replicas() int { return c.ring.Replicas() }

// VNodes returns the per-member virtual node count.
func (c *Cache) VNodes() int { return c.ring.VNodes() }

// AddNode joins a node to the ring. Keys whose ownership moves to it
// fill lazily on their next read; the nodes that lose ownership keep
// their (still push-invalidated) entries until eviction, so a join
// never creates a staleness window.
func (c *Cache) AddNode(name string, p Peer) error {
	if name == "" || p == nil {
		return errors.New("cluster: AddNode needs a name and a peer")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.peers[name]; dup {
		return fmt.Errorf("cluster: node %q already in the ring", name)
	}
	c.peers[name] = p
	c.ring.Add(name)
	c.stats.Rebalances++
	return nil
}

// RemoveNode removes a node from the ring, reporting whether it was a
// member. The peer itself is not closed — the caller owns its
// lifecycle (drain procedures read through it while it leaves; see
// docs/CLUSTER.md).
func (c *Cache) RemoveNode(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.peers[name]; !ok {
		return false
	}
	delete(c.peers, name)
	c.ring.Remove(name)
	c.stats.Rebalances++
	return true
}

// Nodes returns the current members in sorted order.
func (c *Cache) Nodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Nodes()
}

// Owners returns the (doc, user) key's owner set, primary first.
func (c *Cache) Owners(doc, user string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Owners(Key(doc, user))
}

// ownersSnapshot appends the key's owners and their peers to names and
// peers under one lock acquisition, so a routing decision is made
// against a single consistent ring state.
func (c *Cache) ownersSnapshot(doc, user string, names []string, peers []Peer) ([]string, []Peer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	names = c.ring.appendOwners(names, hashDocUser(doc, user), c.ring.Replicas())
	for _, n := range names {
		peers = append(peers, c.peers[n])
	}
	return names, peers
}

// failoverable reports whether an error means "this peer cannot serve
// right now" rather than a document-level failure — the former tries
// the next replica, the latter is returned as-is. The peer's
// remote.Cache has already classified its wire's errors into these two.
func failoverable(err error) bool {
	return errors.Is(err, remote.ErrDegraded) || errors.Is(err, remote.ErrClosed)
}

// Read routes the read to the key's owners in ring order, failing
// over past degraded peers. With every owner degraded it returns the
// last peer error (errors.Is-compatible with remote.ErrDegraded). The
// bytes are the serving peer's, shared and read-only (see Peer).
func (c *Cache) Read(doc, user string) ([]byte, error) {
	data, _, err := c.ReadVia(doc, user)
	return data, err
}

// ReadBody is Read through the peers' ReadBody: the body in the parts
// the serving peer holds it.
func (c *Cache) ReadBody(doc, user string) (stream.Body, error) {
	var body stream.Body
	_, err := c.route(doc, user, &c.stats.Reads, func(p Peer) (err error) {
		body, err = p.ReadBody(doc, user)
		return err
	})
	return body, err
}

// ReadVia is Read plus the name of the node that served it — the
// accounting hook the simulation's per-node oracle and the scaling
// experiment both need.
func (c *Cache) ReadVia(doc, user string) ([]byte, string, error) {
	var data []byte
	via, err := c.route(doc, user, &c.stats.Reads, func(p Peer) (err error) {
		data, err = p.Read(doc, user)
		return err
	})
	if err != nil {
		return nil, via, err
	}
	return data, via, nil
}

// Write routes the write to the key's primary owner, failing over
// across the replica set like Read: any owner's connection reaches
// the origin, so a write only fails when the whole set is degraded.
func (c *Cache) Write(doc, user string, data []byte) error {
	_, err := c.route(doc, user, &c.stats.Writes, func(p Peer) error {
		return p.Write(doc, user, data)
	})
	return err
}

// route runs op against the key's owners in ring order and fails over
// past every owner that cannot serve right now. An owner's answer is
// counted in *routed (stats.Reads or stats.Writes), and its name
// returned; with every owner degraded the operation counts only as a
// degraded error, and route returns no name and the last peer error.
func (c *Cache) route(doc, user string, routed *int64, op func(Peer) error) (string, error) {
	var nameBuf [defaultReplicas]string
	var peerBuf [defaultReplicas]Peer
	names, peers := c.ownersSnapshot(doc, user, nameBuf[:0], peerBuf[:0])
	if len(names) == 0 {
		c.count(&c.stats.DegradedErrors, false)
		return "", ErrNoNodes
	}
	var lastErr error
	for i, p := range peers {
		err := op(p)
		if err == nil || !failoverable(err) {
			c.count(routed, err == nil && i > 0)
			return names[i], err
		}
		lastErr = err
	}
	c.count(&c.stats.DegradedErrors, false)
	return "", fmt.Errorf("cluster: all %d owners of %s/%s degraded: %w", len(names), doc, user, lastErr)
}

// count bumps one of c.stats' counters, and Failovers too when the
// operation skipped a degraded owner to succeed.
func (c *Cache) count(n *int64, failedOver bool) {
	c.mu.Lock()
	*n++
	if failedOver {
		c.stats.Failovers++
	}
	c.mu.Unlock()
}

// Stats returns a counter snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// NodeInfo describes one member for status surfaces (/ring, plctl).
type NodeInfo struct {
	// Name is the ring member name (the peer's address in plcached).
	Name string `json:"name"`
	// State is the wire state of a *remote.Cache peer ("connected",
	// "disconnected", "closed"; "" for other peers).
	State string `json:"state,omitempty"`
	// DownSince is when that wire went down (RFC 3339), while it is.
	DownSince string `json:"down_since,omitempty"`
	// Share is the member's primary-ownership fraction of the hash
	// space (≈ its share of keys).
	Share float64 `json:"share"`
	// Entries is a *remote.Cache peer's cached entry count.
	Entries int `json:"entries"`
	// BytesStored is a *remote.Cache peer's remote.Stats field of
	// that name: what capacity charges its views. What they occupy is
	// the blob store's, which a sidecar's nodes share.
	BytesStored int64 `json:"bytes_stored"`
}

// Info returns a status row per member, sorted by name.
func (c *Cache) Info() []NodeInfo {
	c.mu.Lock()
	names := c.ring.Nodes()
	shares := c.ring.Shares()
	peers := make([]Peer, len(names))
	for i, n := range names {
		peers[i] = c.peers[n]
	}
	c.mu.Unlock()
	out := make([]NodeInfo, len(names))
	for i, n := range names {
		info := NodeInfo{Name: n, Share: shares[n]}
		if rc, ok := peers[i].(*remote.Cache); ok {
			info.State = rc.ConnState().String()
			if t := rc.DownSince(); !t.IsZero() {
				info.DownSince = t.Format(time.RFC3339)
			}
			info.Entries = rc.Len()
			info.BytesStored = rc.Stats().BytesStored
		}
		out[i] = info
	}
	return out
}

// registerMetrics publishes the cluster's counters on o's registry
// under stable placeless_cluster_* names (docs/METRICS.md).
func (c *Cache) registerMetrics(o *obs.Observer) {
	reg := o.Registry()
	counter := func(read func(*Stats) int64) func() int64 {
		return func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return read(&c.stats)
		}
	}
	reg.Counter("placeless_cluster_reads_total",
		"Reads a member of the consistent-hash ring answered (refusals count as degraded errors).", counter(func(s *Stats) int64 { return s.Reads }))
	reg.Counter("placeless_cluster_writes_total",
		"Writes a member of the consistent-hash ring answered (refusals count as degraded errors).", counter(func(s *Stats) int64 { return s.Writes }))
	reg.Counter("placeless_cluster_failovers_total",
		"Operations that skipped at least one degraded owner before succeeding on a replica.", counter(func(s *Stats) int64 { return s.Failovers }))
	reg.Counter("placeless_cluster_degraded_errors_total",
		"Operations refused because every owner in the key's replica set was degraded.", counter(func(s *Stats) int64 { return s.DegradedErrors }))
	reg.Counter("placeless_cluster_rebalances_total",
		"Ring membership changes (node joins + leaves).", counter(func(s *Stats) int64 { return s.Rebalances }))
	reg.Gauge("placeless_cluster_nodes",
		"Current ring member count.",
		func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return int64(c.ring.Size())
		})
	reg.Gauge("placeless_cluster_replicas",
		"Configured owner-set size per key.",
		func() int64 { return int64(c.ring.Replicas()) })
}
