package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"placeless/internal/property"
	"placeless/internal/replace"
	"placeless/internal/sig"
	"placeless/internal/stream"
)

// Table is the one entry table under both cache placements: Cache,
// beside the Placeless server, and remote.Cache, on the machine where
// applications run. It holds the lock-striped index of entries with
// its single-flight tables (shard.go, singleflight.go), the
// replacement policy with pinned eviction, the per-document
// invalidation generations and, per stripe, the keys of each document,
// so a document-wide or per-user drop visits only that document's keys.
// Its bytes live in a BlobStore, its own or one it shares with the
// other tables of a process (the nodes of a sidecar's ring).
//
// What is not here belongs to the placement: verification, simulated
// hit cost and event forwarding on a hit (Lookup, then Confirm), the
// read path a miss runs (Do), what an invalidation is counted as, and
// everything about notifiers or the wire.
type Table struct {
	shardedIndex

	closed   atomic.Bool
	capacity atomic.Int64

	// policy decides eviction order. It stays global — Greedy-Dual-
	// Size's aging value L must see every entry to keep eviction
	// globally cost-aware — but behind its own leaf lock, so lookups
	// on other keys never wait on it.
	policyMu sync.Mutex
	policy   replace.Policy

	// blobs keeps the records' bytes, shared by signature with every
	// table built on the same store (BlobStore).
	blobs *BlobStore

	// gens carries per-document invalidation generations (doc →
	// *atomic.Uint64) — the guard against installing a result that went
	// stale mid-read — as lock-free atomics. The install-race invariant:
	// a drop bumps the generation before it scans the stripes, so an
	// installer holding its stripe lock either finished before the scan
	// reached it (and is dropped) or acquired the stripe after the scan
	// did, in which case the stripe mutex carries a happens-before edge
	// from the bump and the installer's atomic load observes it.
	gens sync.Map

	stats tableCounters
}

// tableCounters is what the table counts itself; the placements read
// it into their own Stats.
type tableCounters struct {
	bytesStored   atomic.Int64 // unique bytes charged: every blob its records hold, at its full length
	bytesLogical  atomic.Int64 // entry sizes before sharing (cuts excluded)
	sharedEntries atomic.Int64 // entries whose blob another entry shares
	cuts          atomic.Int64 // resident prefix cuts
	cutBytes      atomic.Int64 // their logical size
	evictions     atomic.Int64 // entries and cuts dropped for capacity
}

// Entry is one record of the table: a cached (document, user) version,
// or — cut set — a memoized prefix output (intermediate.go). A cut
// carries no cacheability or verifiers: its key implies its bytes.
type Entry struct {
	// Doc and User name the view. A cut keeps Doc so a document-wide
	// drop takes it; its User is set only for cuts inside the personal
	// chain (empty for universal-prefix cuts), so a per-user drop takes
	// that user's personal cuts. A personal cut shared by users with
	// identical chain prefixes is tagged with whoever installed it —
	// dropping it on that user's invalidation merely costs the others a
	// recompute.
	Doc, User string
	// Signature keys the entry's bytes in the blob store.
	Signature sig.Signature
	// Cost is the replacement cost the policy weighs.
	Cost time.Duration
	// Cacheability is the read path's aggregated vote.
	Cacheability property.Cacheability
	// Verifiers run on every hit (Valid).
	Verifiers []property.Verifier

	cut  bool
	size int64
	blob *blob // the interned bytes, shared by every holder of Signature
}

// Valid runs the entry's verifiers at now; an error or a refusal from
// any of them invalidates the entry.
func (e *Entry) Valid(now time.Time) bool {
	for _, v := range e.Verifiers {
		if ok, err := v.Check(now); err != nil || !ok {
			return false
		}
	}
	return true
}

// BlobStore is the signature-shared content store tables keep their
// bytes in: one blob per signature, whichever table's record installed
// it, so identical bytes are kept once however many tables hold them.
// A table built on its own store (NewTable with nil) is the origin's
// case; a sidecar builds every node of its ring on one, so a
// document's head is kept once per process, not once per node.
//
// What a table charges stays the table's own: each blob counts its
// holders per table (hold), and a table charges a blob its full length
// while one of its own records holds it, so capacity, eviction and
// BytesStored are what the table alone would give. Only the bytes are
// shared, and BytesResident is the store's. mu is a leaf lock under
// every table's stripe locks (shard.go); a hit takes no lock of the
// store, since a blob's bytes and base never change.
type BlobStore struct {
	mu       sync.Mutex
	blobs    map[sig.Signature]*blob
	resident atomic.Int64 // bytes the blobs occupy: a tail-shared blob only its tail
}

// NewBlobStore returns an empty store.
func NewBlobStore() *BlobStore {
	return &BlobStore{blobs: make(map[sig.Signature]*blob)}
}

// BytesResident is what the blobs occupy: a tail-shared blob its tail,
// and a base held only by its tails its bytes.
func (st *BlobStore) BytesResident() int64 { return st.resident.Load() }

// blob is signature-shared content storage, with one hold per table
// whose records hold it.
//
// A tail-shared blob's bytes are its base's bytes followed by data:
// a personal view that only appends to the cut it was built from (a
// watermark banner) keeps the cut's bytes once and its own tail. Only
// a whole blob is a base, so the chain is one level deep. tails counts
// the blobs built on this one, in every table; a base outlives its
// last holder until its last tail goes, but is charged (bytesStored)
// only while held.
type blob struct {
	s     sig.Signature
	data  []byte // the whole bytes, or with base set the tail after base.data
	base  *blob
	holds []hold
	tails int
}

// hold is one table's references to a blob. refs counts its records of
// either kind (entries and cuts); entryRefs counts only (doc, user)
// entries, because the SharedEntries gauge is defined over entries and
// a cut aliasing an entry's bytes must not distort it.
type hold struct {
	t         *Table
	refs      int
	entryRefs int
}

// newBlob returns an empty blob under s with room for one table's hold
// in the same allocation: most blobs are held by one table.
func newBlob(s sig.Signature) *blob {
	bh := &struct {
		blob
		first [1]hold
	}{blob: blob{s: s}}
	bh.holds = bh.first[:0]
	return &bh.blob
}

// holdOf returns t's hold on b, or nil.
func (b *blob) holdOf(t *Table) *hold {
	for i := range b.holds {
		if b.holds[i].t == t {
			return &b.holds[i]
		}
	}
	return nil
}

// size is the blob's logical length, what capacity charges it.
func (b *blob) size() int64 {
	if b.base != nil {
		return int64(len(b.base.data) + len(b.data))
	}
	return int64(len(b.data))
}

// body returns the blob's bytes as the table holds them: a whole
// blob's all Head, a tail-shared blob's its base's bytes and its own
// tail. Both parts alias immutable blobs and must not be modified.
func (b *blob) body() stream.Body {
	if b.base != nil {
		return stream.Body{Head: b.base.data, Tail: b.data, HeadSig: b.base.s}
	}
	return stream.Body{Head: b.data}
}

// Key builds the (document, user) entry identifier. The paper: "Our
// current implementation tags content with both a document identifier
// and the user to whom the version of the document belongs."
func Key(doc, user string) string { return doc + "\x00" + user }

// NewTable returns an empty table with the GOMAXPROCS-scaled stripe
// count (see newShardedIndex) and the given replacement policy, keeping
// its bytes in blobs, or in a store of its own when blobs is nil. Its
// capacity is unlimited until Resize.
func NewTable(policy replace.Policy, blobs *BlobStore) *Table {
	if blobs == nil {
		blobs = NewBlobStore()
	}
	return &Table{
		shardedIndex: newShardedIndex(0),
		policy:       policy,
		blobs:        blobs,
	}
}

// Resize changes the byte budget (unique bytes charged, BytesStored;
// <= 0 means unlimited) and evicts at once if the table is now over
// it.
func (t *Table) Resize(capacity int64) {
	t.capacity.Store(capacity)
	t.evict("")
}

// Closed reports whether Close has run.
func (t *Table) Closed() bool { return t.closed.Load() }

// BytesStored is the unique content capacity charges: every blob an
// entry or cut holds, at its full length.
func (t *Table) BytesStored() int64 { return t.stats.bytesStored.Load() }

// Evictions counts entries and cuts dropped for capacity.
func (t *Table) Evictions() int64 { return t.stats.evictions.Load() }

// gen returns the document's invalidation-generation counter, creating
// it on first use. The fast path is a lock-free sync.Map load.
func (t *Table) gen(doc string) *atomic.Uint64 {
	if g, ok := t.gens.Load(doc); ok {
		return g.(*atomic.Uint64)
	}
	g, _ := t.gens.LoadOrStore(doc, new(atomic.Uint64))
	return g.(*atomic.Uint64)
}

// Gen snapshots the document's invalidation generation. A reader takes
// it before it fetches, and hands it to Install with the bytes.
func (t *Table) Gen(doc string) uint64 { return t.gen(doc).Load() }

// Len reports how many (document, user) entries the table holds; cuts
// are not counted.
func (t *Table) Len() (n int) {
	t.each(func(sh *shard) { n += len(sh.entries) - sh.cuts })
	return n
}

// Contains reports whether k holds an entry or cut, without verifying
// it or touching the policy.
func (t *Table) Contains(k string) bool {
	e, _ := t.Lookup(k)
	return e != nil
}

// Lookup returns the record under k and its bytes, which alias the
// table's immutable blobs and must not be modified; nil when k holds
// none. It changes nothing: the caller verifies what it found, then
// Confirm accounts the hit.
func (t *Table) Lookup(k string) (*Entry, stream.Body) {
	sh := t.shardFor(k)
	sh.mu.Lock()
	e := sh.entries[k]
	sh.mu.Unlock()
	if e == nil {
		return nil, stream.Body{}
	}
	return e, e.blob.body()
}

// Confirm accounts a hit on e, which Lookup returned for k: it reports
// whether k still holds e — an invalidation or a reinstall may have
// replaced it while the caller verified — and if so marks the access in
// the policy.
func (t *Table) Confirm(k string, e *Entry) bool {
	sh := t.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.entries[k] != e {
		return false
	}
	t.policyMu.Lock()
	t.policy.Access(k)
	t.policyMu.Unlock()
	return true
}

// DropIf drops k if it still holds e: a verifier's refusal must not
// take a concurrent reinstall's fresh entry with it. Reports whether it
// dropped.
func (t *Table) DropIf(k string, e *Entry) bool {
	sh := t.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.entries[k] == e && t.dropLocked(sh, k)
}

// drop drops whatever k holds.
func (t *Table) drop(k string) {
	sh := t.shardFor(k)
	sh.mu.Lock()
	t.dropLocked(sh, k)
	sh.mu.Unlock()
}

// Install puts e under k with data as its bytes (already signed:
// e.Signature), replacing whatever k held — unless the table is closed
// or e.Doc's generation has moved past gen, the one the caller took
// before it read the bytes. Both are checked under the stripe lock the
// install holds, so a drop either sees the entry or the entry sees the
// drop. A cut has no generation to check: its key implies its bytes,
// so a drop that visits it before the install finds nothing and one
// after drops it — a lost memo, never a wrong one. Install then evicts
// down to capacity; the flight the caller leads for k does not pin k,
// so a record larger than the budget evicts itself. It reports whether
// e went in, and is the one way a record of either kind enters the
// table.
//
// base names, by its signature, the blob data was built from, or is
// zero. data may come in two parts split at base (HeadSig == base)
// when the caller has proved its head is that blob's bytes: a blob the
// table holds (a read that ended on a tail-shared cut), a disk
// promote's verified head, or the head an origin reported across the
// wire. A split body is never joined; a whole one that begins with a
// resident base's bytes keeps only the rest (BlobStore.intern).
// Install may keep data's bytes themselves as the blob, or its head as
// the base, so from the call on nobody modifies them.
func (t *Table) Install(k string, e *Entry, data stream.Body, gen uint64, base sig.Signature) bool {
	sh := t.shardFor(k)
	sh.mu.Lock()
	if t.closed.Load() || !e.cut && t.gen(e.Doc).Load() != gen {
		sh.mu.Unlock()
		return false
	}
	t.dropLocked(sh, k)
	e.size = int64(data.Len())
	e.blob = t.blobs.intern(t, e.Signature, data, !e.cut, base)
	sh.entries[k] = e
	keys := sh.docs[e.Doc]
	if keys == nil {
		keys = make(map[string]struct{})
		sh.docs[e.Doc] = keys
	}
	keys[k] = struct{}{}
	if e.cut {
		sh.cuts++
		t.stats.cuts.Add(1)
		t.stats.cutBytes.Add(e.size)
	} else {
		t.stats.bytesLogical.Add(e.size)
	}
	t.policyInsert(k, e)
	sh.mu.Unlock()
	t.evict(k)
	return true
}

// policyInsert hands k to the replacement policy at e's size and cost.
func (t *Table) policyInsert(k string, e *Entry) {
	t.policyMu.Lock()
	t.policy.Insert(k, e.size, e.Cost)
	t.policyMu.Unlock()
}

// dropLocked removes the entry or cut under k and releases its blob
// reference: the one drop. The caller holds sh.mu; policyMu and the
// store's mu are taken as nested leaf locks. Reports whether anything
// was present.
func (t *Table) dropLocked(sh *shard, k string) bool {
	e, ok := sh.entries[k]
	if !ok {
		return false
	}
	delete(sh.entries, k)
	keys := sh.docs[e.Doc]
	delete(keys, k)
	if len(keys) == 0 {
		delete(sh.docs, e.Doc)
	}
	t.policyMu.Lock()
	t.policy.Remove(k)
	t.policyMu.Unlock()
	if e.cut {
		sh.cuts--
		t.stats.cuts.Add(-1)
		t.stats.cutBytes.Add(-e.size)
	} else {
		t.stats.bytesLogical.Add(-e.size)
	}
	t.blobs.unref(t, e)
	return true
}

// DropDoc drops every entry and cut of doc. It reports the entries
// (not cuts) it dropped, whether a universal cut — one with no owner,
// which every user's read starts from — was among the cuts, and the
// document's new generation.
func (t *Table) DropDoc(doc string) (entries int, sharedCut bool, gen uint64) {
	return t.dropDoc(doc, func(*Entry) bool { return true })
}

// DropUser drops user's entry of doc and the personal cuts user
// installed (a personal change moves the personal prefix fingerprints,
// stranding those keys). Universal cuts survive: a personal change
// cannot affect universal-stage output. It reports the entries (0 or 1)
// it dropped and the document's new generation.
func (t *Table) DropUser(doc, user string) (entries int, gen uint64) {
	entries, _, gen = t.dropDoc(doc, func(e *Entry) bool { return e.User == user && (user != "" || !e.cut) })
	return entries, gen
}

// dropDoc bumps doc's generation, then drops the records of doc that
// match accepts, one stripe at a time, visiting only doc's keys — cuts
// hash by (source, fingerprint), not by document, so a document's
// records sit in any stripe.
func (t *Table) dropDoc(doc string, match func(*Entry) bool) (entries int, sharedCut bool, gen uint64) {
	gen = t.gen(doc).Add(1)
	t.each(func(sh *shard) {
		// Deleting from the set while ranging over it is defined.
		for k := range sh.docs[doc] {
			if e := sh.entries[k]; match(e) && t.dropLocked(sh, k) {
				sharedCut = sharedCut || e.cut && e.User == ""
				if !e.cut {
					entries++
				}
			}
		}
	})
	return entries, sharedCut, gen
}

// DropAll bumps every document's generation, then drops everything,
// one stripe at a time: reads in flight from before the call cannot
// install what they fetched. It reports the entries (not cuts) dropped.
func (t *Table) DropAll() (entries int) {
	t.gens.Range(func(_, g any) bool {
		g.(*atomic.Uint64).Add(1)
		return true
	})
	t.each(func(sh *shard) {
		for k, e := range sh.entries {
			if t.dropLocked(sh, k) && !e.cut {
				entries++
			}
		}
	})
	return entries
}

// Close rejects every later install and drops everything. It reports
// whether this call closed the table (false if it already was).
func (t *Table) Close() bool {
	if t.closed.Swap(true) {
		return false
	}
	// Installs in flight observe the flag under their stripe lock, so
	// nothing lands behind the sweep.
	t.DropAll()
	return true
}

// intern interns body's bytes, data, under s, their signature, takes
// one reference for t and returns the blob, maintaining the store's
// resident bytes and t's byte and shared-entry gauges incrementally.
// Nothing is joined or copied when a blob is already resident under s,
// whichever table's record put it there. A body split at base is never
// joined: its head is bytes the caller has proved to be base's, so the
// new blob is built on the resident base when that holds the same
// bytes, or on the head itself, kept in place as the base and charged
// to no one until a record holds it (the base rule of free), when
// there is none. It keeps the tail itself unless the tail may lie in
// the buffer of another copy of the head. A whole body is built on a
// resident base whose bytes it begins with and keeps a copy of the
// rest; an empty blob is no base, since the wire and the disk record
// name a head by a non-zero length. Any other body, a split one whose
// head is not the resident base's bytes included, is kept whole: data
// itself, or an exact-size copy when data has spare capacity, so a
// blob never pins more than its bytes (an in-place base pins its
// tail's bytes too). The caller signs — once, before it takes the
// stripe lock this runs under — or passes on the signatures a lower
// tier (the disk store, the origin across the wire) has proved.
// asEntry distinguishes (doc, user) entries from cuts: both share
// storage and lifetime, but only entry references drive the
// SharedEntries gauge.
func (st *BlobStore) intern(t *Table, s sig.Signature, body stream.Body, asEntry bool, base sig.Signature) *blob {
	st.mu.Lock()
	defer st.mu.Unlock()
	b := st.blobs[s]
	if b == nil {
		b = newBlob(s)
		data := body.Tail
		keep := false // data may stay in place although b is built on a base
		h := st.blobs[base]
		switch {
		case base.IsZero():
			data = body.Bytes()
		case body.HeadSig == base && len(body.Head) > 0 && len(body.Tail) > 0 &&
			(h == nil || h.base == nil && bytes.Equal(h.data, body.Head)):
			if h == nil {
				h = st.placeBase(base, body.Head)
			}
			b.base = h
			// A tail that follows some other copy of the head may lie in
			// that copy's buffer, which must not outlive the read.
			keep = &h.data[0] == &body.Head[0]
		default:
			data = body.Bytes()
			if h != nil && h.base != nil {
				h = h.base // data begins with h's bytes, so with its base's too
			}
			if h != nil && len(h.data) > 0 && len(data) > len(h.data) && bytes.HasPrefix(data, h.data) {
				b.base = h
				data = data[len(h.data):]
			}
		}
		if b.base != nil {
			b.base.tails++
		}
		if cap(data) != len(data) || b.base != nil && !keep {
			data = append(make([]byte, 0, len(data)), data...)
		}
		b.data = data
		st.blobs[s] = b
		st.resident.Add(int64(len(data)))
	}
	h := b.holdOf(t)
	if h == nil {
		b.holds = append(b.holds, hold{t: t})
		h = &b.holds[len(b.holds)-1]
		t.stats.bytesStored.Add(b.size())
	}
	if asEntry {
		// SharedEntries counts t's entries whose blob has >1 entry
		// reference in t; going 1→2 makes both sharers shared, each
		// later reference adds one.
		switch {
		case h.entryRefs == 1:
			t.stats.sharedEntries.Add(2)
		case h.entryRefs >= 2:
			t.stats.sharedEntries.Add(1)
		}
		h.entryRefs++
	}
	h.refs++
	return b
}

// placeBase makes head, in place, the blob under s, held by no record
// yet: the base a new blob is about to be built on. The caller holds
// mu.
func (st *BlobStore) placeBase(s sig.Signature, head []byte) *blob {
	h := &blob{s: s, data: head[:len(head):len(head)]}
	st.blobs[s] = h
	st.resident.Add(int64(len(head)))
	return h
}

// whole returns the bytes of the whole blob the store holds under s,
// held by records or only by the tails built on it, or nil: bytes a
// blob about to be interned may be built on.
func (st *BlobStore) whole(s sig.Signature) []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	if b := st.blobs[s]; b != nil && b.base == nil {
		return b.data
	}
	return nil
}

// unref drops the reference e, a record of t, holds on its blob. t
// stops being charged for the blob when its last record of either kind
// lets go, and the blob is freed when no table holds it unless tails
// still build on it.
func (st *BlobStore) unref(t *Table, e *Entry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	b := e.blob
	h := b.holdOf(t)
	if !e.cut {
		h.entryRefs--
		switch {
		case h.entryRefs == 1:
			t.stats.sharedEntries.Add(-2)
		case h.entryRefs >= 2:
			t.stats.sharedEntries.Add(-1)
		}
	}
	h.refs--
	if h.refs == 0 {
		t.stats.bytesStored.Add(-b.size())
		last := len(b.holds) - 1
		*h = b.holds[last]
		b.holds = b.holds[:last]
		st.free(b)
	}
}

// free frees b if no table holds it and nothing builds on it, and then
// its base if b was the base's last tail. The caller holds mu.
func (st *BlobStore) free(b *blob) {
	if len(b.holds) > 0 || b.tails > 0 {
		return
	}
	delete(st.blobs, b.s)
	st.resident.Add(-int64(len(b.data)))
	if h := b.base; h != nil {
		h.tails--
		st.free(h)
	}
}

// evict enforces the capacity budget using the replacement policy.
// Entries and cuts live in the same policy, so cost-aware replacement
// weighs a memoized prefix against full entries on equal terms.
// Capacity is measured in unique bytes charged, so evicting a key
// whose blob is shared may free nothing; the loop continues until
// under budget or empty. Each round takes only the policy lock (to
// pick the globally best victim) and then that victim's stripe lock —
// never a global lock and never two stripe locks, so lookups on other
// stripes proceed throughout.
//
// A key with an in-flight single-flight read is pinned: a reader is
// mid-verify or mid-install on it, and evicting underneath would throw
// away bytes about to be revalidated (thrash at best). A pinned victim
// is taken out of the policy for this pass and put back afterwards if
// it survived. exempt names the one key the caller's own flight covers
// — the leader installing a fresh entry must still be able to evict
// itself when a huge insert blows the budget.
func (t *Table) evict(exempt string) {
	capacity := t.capacity.Load()
	if capacity <= 0 {
		return
	}
	var pinned []string
	defer func() { t.reinsertPinned(pinned) }()
	for t.stats.bytesStored.Load() > capacity {
		t.policyMu.Lock()
		victim, ok := t.policy.Victim()
		t.policyMu.Unlock()
		if !ok {
			return
		}
		sh := t.shardFor(victim)
		sh.mu.Lock()
		if victim != exempt && sh.flights[victim] != nil {
			// Pinned. Victim only peeks, so take the key out of the
			// policy ourselves — each pass over a pinned key shrinks
			// the policy, which keeps the loop terminating when only
			// pinned entries remain.
			t.policyMu.Lock()
			t.policy.Remove(victim)
			t.policyMu.Unlock()
			if _, present := sh.entries[victim]; present {
				pinned = append(pinned, victim)
			}
			sh.mu.Unlock()
			continue
		}
		if t.dropLocked(sh, victim) {
			t.stats.evictions.Add(1)
		}
		// else: a concurrent drop beat us to the victim (and already
		// removed it from the policy); re-check the budget.
		sh.mu.Unlock()
	}
}

// reinsertPinned puts keys skipped by evict back into the policy, but
// only when the entry is still installed — the flight that pinned a
// key may have finished and replaced (or a drop removed) the entry,
// and a policy key with no entry behind it would make future Victim
// calls spin on a ghost.
func (t *Table) reinsertPinned(keys []string) {
	for _, k := range keys {
		sh := t.shardFor(k)
		sh.mu.Lock()
		if e, ok := sh.entries[k]; ok {
			t.policyInsert(k, e)
		}
		sh.mu.Unlock()
	}
}

// Audit checks the per-stripe document index against the entries —
// each stripe's set for a document names exactly that stripe's records
// of the document, and no set is kept empty — and, on a quiescent
// table, its holds in the blob store against its records: each blob
// its records hold carries the table's hold with their counts, no
// other blob does, and BytesStored is those blobs' full lengths. It
// returns a disagreement, or nil.
func (t *Table) Audit() (err error) {
	refs := map[*blob]hold{}
	t.each(func(sh *shard) {
		n := 0
		for doc, keys := range sh.docs {
			for k := range keys {
				if e := sh.entries[k]; e == nil || e.Doc != doc {
					err = fmt.Errorf("core: key set of %q names %q, which holds %+v", doc, k, e)
				}
			}
			if len(keys) == 0 {
				err = fmt.Errorf("core: empty key set kept for %q", doc)
			}
			n += len(keys)
		}
		if n != len(sh.entries) {
			err = fmt.Errorf("core: a stripe's key sets name %d records, the stripe holds %d", n, len(sh.entries))
		}
		for _, e := range sh.entries {
			h := refs[e.blob]
			h.refs++
			if !e.cut {
				h.entryRefs++
			}
			refs[e.blob] = h
		}
	})
	if err != nil {
		return err
	}
	st := t.blobs
	st.mu.Lock()
	defer st.mu.Unlock()
	var stored int64
	for b, want := range refs {
		if h := b.holdOf(t); st.blobs[b.s] != b || h == nil || h.refs != want.refs || h.entryRefs != want.entryRefs {
			return fmt.Errorf("core: blob %s: the table's records hold it %d times (%d entries), its hold reads %+v", b.s, want.refs, want.entryRefs, h)
		}
		stored += b.size()
	}
	for _, b := range st.blobs {
		if _, held := refs[b]; !held && b.holdOf(t) != nil {
			return fmt.Errorf("core: blob %s carries a hold of the table and no record of it", b.s)
		}
	}
	if got := t.stats.bytesStored.Load(); got != stored {
		return fmt.Errorf("core: BytesStored %d, the held blobs' full lengths %d", got, stored)
	}
	return nil
}

// Audit checks a quiescent store: every blob is held by a table or
// built on, each base is a whole blob of the store and counts the
// blobs built on it, and BytesResident is the bytes the blobs keep.
// It returns a disagreement, or nil.
func (st *BlobStore) Audit() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var resident int64
	tails := map[*blob]int{}
	for s, b := range st.blobs {
		if b.s != s {
			return fmt.Errorf("core: blob %s kept under %s", b.s, s)
		}
		for _, h := range b.holds {
			if h.refs <= 0 {
				return fmt.Errorf("core: blob %s: a hold of %d references", s, h.refs)
			}
		}
		if len(b.holds) == 0 && b.tails == 0 {
			return fmt.Errorf("core: blob %s is neither held nor built on", s)
		}
		if h := b.base; h != nil {
			if st.blobs[h.s] != h || h.base != nil {
				return fmt.Errorf("core: blob %s is built on %s, which is not a whole blob of the store", s, h.s)
			}
			tails[h]++
		}
		resident += int64(len(b.data))
	}
	for _, b := range st.blobs {
		if b.tails != tails[b] {
			return fmt.Errorf("core: blob %s counts %d tails, %d are built on it", b.s, b.tails, tails[b])
		}
	}
	if got := st.resident.Load(); got != resident {
		return fmt.Errorf("core: BytesResident %d, the blobs keep %d", got, resident)
	}
	return nil
}
