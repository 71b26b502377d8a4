// Package cluster scales the Placeless cache tier out to many
// daemons: a consistent-hash ring assigns every (doc, user) key to a
// small, stable set of owner nodes, and a cluster-aware cache routes
// reads and writes to those owners, failing over between replicas
// when a peer is degraded.
//
// Placement hashes keys, not content — ownership must be computable
// before the bytes exist — but the blob store behind every node is
// signature-addressed, so a key can be served from any node that
// holds its content without coordination: the ring only decides who
// caches it, never who may. Consistency still rides the paper's
// notifier mechanism end to end: each node's connection to the origin
// carries that node's own subscriptions, so the origin's notifiers
// fan invalidations out to every replica that cached a key, and the
// per-peer reconnect/epoch/suspect machinery (see internal/remote)
// covers node death, join, and rebalance. DESIGN.md §13 states the
// invariants precisely; docs/CLUSTER.md is the operator guide.
package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// DefaultVNodes is the virtual-node count per physical node: enough
// points that primary ownership is balanced within a few percent at
// realistic fleet sizes, few enough that membership changes stay
// cheap (the ring is rebuilt by sorting vnodes·nodes points).
const DefaultVNodes = 128

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes and N-way replica
// placement. It is a pure data structure — not safe for concurrent
// mutation; Cache serializes access, and read-only tools (plctl ring)
// build their own.
type Ring struct {
	replicas int
	vnodes   int
	points   []point // sorted by (hash, node)
	members  map[string]struct{}
}

// NewRing builds an empty ring. replicas is the owner-set size handed
// out by Owners (at most the member count); vnodes is the virtual
// node count per member (0 = DefaultVNodes).
func NewRing(replicas, vnodes int) *Ring {
	if replicas <= 0 {
		replicas = 1
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{replicas: replicas, vnodes: vnodes, members: make(map[string]struct{})}
}

// Replicas returns the configured owner-set size.
func (r *Ring) Replicas() int { return r.replicas }

// VNodes returns the per-member virtual node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.members))
	for n := range r.members {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Contains reports ring membership.
func (r *Ring) Contains(node string) bool {
	_, ok := r.members[node]
	return ok
}

// hashKey positions a key on the ring: FNV-1a 64 for cheap,
// process-independent hashing, then a full-avalanche finalizer. The
// finalizer matters: vnode labels differ only in a trailing digit, and
// raw FNV gives a one-byte suffix change only a single multiply of
// diffusion, clumping a node's points into narrow arcs. The balance
// properties are pinned by tests.
func hashKey(s string) uint64 {
	return mix64(fnv1a(fnvOffset, s))
}

// hashDocUser is hashKey(Key(doc, user)) without building the key.
func hashDocUser(doc, user string) uint64 {
	return mix64(fnv1a(fnv1a(fnv1a(fnvOffset, doc), "\x00"), user))
}

// FNV-1a 64 parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds s into the FNV-1a 64 state h.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// mix64 is a 64-bit avalanche finalizer (fmix64 from MurmurHash3):
// every input bit flips every output bit with probability ~1/2.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a member and its virtual nodes. It reports whether the
// ring changed (false for a duplicate).
func (r *Ring) Add(node string) bool {
	if node == "" {
		return false
	}
	if _, dup := r.members[node]; dup {
		return false
	}
	r.members[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: hashKey(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return true
}

// Remove deletes a member and its virtual nodes. It reports whether
// the member was present. Keys it owned move to the next nodes
// clockwise; no other key moves — the consistent-hash guarantee the
// quick tests pin.
func (r *Ring) Remove(node string) bool {
	if _, ok := r.members[node]; !ok {
		return false
	}
	delete(r.members, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

// Owners returns the key's owner set: walking clockwise from the
// key's ring position, the first min(replicas, Size) distinct nodes.
// The slice is freshly allocated and ordered primary-first.
func (r *Ring) Owners(key string) []string {
	return r.OwnersN(key, r.replicas)
}

// OwnersN is Owners with an explicit owner-set size.
func (r *Ring) OwnersN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	return r.appendOwners(make([]string, 0, min(n, len(r.members))), hashKey(key), n)
}

// appendOwners appends to dst the owner set of the ring position h:
// walking clockwise from h, the first min(n, Size) distinct nodes. It
// allocates only when dst has too little room for them.
func (r *Ring) appendOwners(dst []string, h uint64, n int) []string {
	n = min(n, len(r.members))
	base := len(dst)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(dst)-base < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !slices.Contains(dst[base:], p.node) {
			dst = append(dst, p.node)
		}
	}
	return dst
}

// Primary returns the key's first owner (ok=false on an empty ring).
func (r *Ring) Primary(key string) (string, bool) {
	o := r.OwnersN(key, 1)
	if len(o) == 0 {
		return "", false
	}
	return o[0], true
}

// Shares returns each member's fraction of the hash space for which
// it is the primary owner — the expected share of keys (and so of
// load) it fields. Operators read this through `plctl ring` to spot
// skew; the balance quick-test bounds it.
func (r *Ring) Shares() map[string]float64 {
	out := make(map[string]float64, len(r.members))
	if len(r.points) == 0 {
		return out
	}
	const space = float64(1<<63) * 2 // 2^64 as float
	for i, p := range r.points {
		prev := r.points[(i-1+len(r.points))%len(r.points)].hash
		// The arc (prev, p.hash] maps to p.node; the wrap-around arc
		// through zero belongs to the first point.
		width := p.hash - prev // uint64 arithmetic wraps correctly
		out[p.node] += float64(width) / space
	}
	return out
}

// Key builds the ring key for a (doc, user) view — the same composite
// key every cache tier indexes by.
func Key(doc, user string) string { return doc + "\x00" + user }
