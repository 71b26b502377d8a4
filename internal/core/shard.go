package core

import (
	"runtime"
	"sync"
)

// The table's index (table.go) is partitioned into lock-striped shards
// so concurrent readers of different entries never contend on one
// global mutex (the seed implementation's shape). A shard owns a slice
// of the key space — the cached (doc, user) entries, the memoized
// prefix cuts (intermediate.go; the same Entry type under a disjoint
// key namespace), the keys of each document among them and the
// in-flight table that single-flights both — selected by an FNV-1a hash
// of the key masked to a power-of-two shard count.
//
// Lock ordering (see also DESIGN.md §6):
//
//	remote.Cache.mu  >  shard.mu  >  policyMu | BlobStore.mu     (leaf locks)
//
// A goroutine may hold at most one shard lock at a time, may take any
// single leaf lock while holding it, and must never acquire a shard
// lock while holding a leaf lock. A BlobStore shared by several tables
// is one leaf under all their stripes, and no goroutine holds stripes
// of two tables, so the order holds across them. The sidecar's own lock, when a
// remote.Cache holds the table, ranks above every table lock and is
// never taken under one. Per-document invalidation generations are
// plain atomics (Table.gens) and sit outside the ordering entirely. No
// lock may be held across calls into the document space (attachment,
// read/write paths, event forwarding), across a cut's compute closure,
// or across clock sleeps — all can synchronously re-enter the cache
// through notifier callbacks, some of them fired by timers.

// shard is one stripe of the index. docs maps each document to the keys
// of its entries and cuts in this stripe, so a drop by document visits
// nothing else; cuts counts the entries that are prefix cuts, so the
// (doc, user) entry count stays O(1) per stripe.
type shard struct {
	mu      sync.Mutex
	entries map[string]*Entry
	docs    map[string]map[string]struct{}
	cuts    int
	flights map[string]*flight
}

// shardedIndex is the table's stripes.
type shardedIndex struct {
	shards []shard
	mask   uint32
}

// defaultShardCount scales the stripe count with available
// parallelism: the next power of two at or above 4×GOMAXPROCS,
// clamped to [8, 256]. Oversubscribing cores keeps the collision
// probability of two hot keys on one stripe low.
func defaultShardCount() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 256 {
		n = 256
	}
	return nextPow2(n)
}

// nextPow2 rounds n up to a power of two (n must be >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newShardedIndex builds an index with n stripes; n <= 0 selects the
// GOMAXPROCS-scaled default, other values are rounded up to a power of
// two so masking works.
func newShardedIndex(n int) shardedIndex {
	if n <= 0 {
		n = defaultShardCount()
	} else {
		n = nextPow2(n)
	}
	idx := shardedIndex{shards: make([]shard, n), mask: uint32(n - 1)}
	for i := range idx.shards {
		idx.shards[i].entries = make(map[string]*Entry)
		idx.shards[i].docs = make(map[string]map[string]struct{})
		idx.shards[i].flights = make(map[string]*flight)
	}
	return idx
}

// FNV-1a constants (32-bit).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// shardHash is FNV-1a over the entry key. It is the stable
// shard-assignment function: equal keys always land on the same
// stripe, regardless of map iteration or insertion order.
func shardHash(k string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= fnvPrime32
	}
	return h
}

// shardFor returns the stripe owning key k.
func (x *shardedIndex) shardFor(k string) *shard {
	return &x.shards[shardHash(k)&x.mask]
}

// each visits every stripe in index order, locking one at a time —
// the pattern of the table's drops by document and of DropAll. fn runs
// with sh.mu held and must follow the leaf-lock ordering rules.
func (x *shardedIndex) each(fn func(sh *shard)) {
	for i := range x.shards {
		sh := &x.shards[i]
		sh.mu.Lock()
		fn(sh)
		sh.mu.Unlock()
	}
}
