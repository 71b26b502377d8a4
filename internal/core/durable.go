package core

import (
	"time"

	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/sig"
	"placeless/internal/store"
	"placeless/internal/stream"
)

// The durable disk tier (internal/store) under the in-memory cache.
//
// The tier is write-behind and content-addressed. At install time a
// miss whose result is eligible (unrestricted, fully memoizable) is
// demoted: its bytes go into the store's append-only segments, and a
// metadata record appended after them binds them to the content key
// the staged read path computed —
// (source signature, universal-chain fingerprint, personal-chain
// fingerprint). On a later miss — typically after a restart — the tier
// is consulted first: the persisted key is recomputed against the live
// document space, and only if every component matches (and the chains
// are still memoizable) are the disk bytes served, because equal
// content keys over memoizable chains imply byte-identical output.
//
// What content addressing cannot see is time the process spent down.
// Two mechanisms close that window:
//
//   - Invalidation epochs. Every notifier-driven invalidation appends
//     the document's new generation to the store's segments; New seeds
//     the in-memory generation counters from the persisted epochs; and
//     the store itself refuses entries recorded under an older
//     generation. A signature invalidated while the process was down is
//     structurally unservable even though its bytes are still on disk.
//   - Re-probing. The content-key probe at promotion time derives the
//     *current* source signature and chain fingerprints. The source
//     signature comes from the document's stamp while the verifiers
//     its bit-provider's last fetch returned still hold (one stat for
//     a file), and from a fetch and a hash otherwise. A fresh process
//     starts with no stamps, so a document rewritten out-of-band
//     during the outage is fetched, fails the SourceSig match and
//     falls through to recompute.
//
// Promoted entries cannot carry their original verifiers (closures do
// not persist), so each gets a fresh "store-recheck" verifier that
// re-derives the content key on every hit — strictly more conservative
// than the original verifier set for memoizable chains, whose validity
// is exactly "the content key still matches".
//
// Locking: all store I/O and all content-key probes run with no cache
// lock held. Promotion goes through the table's one install, which
// re-checks closed and the generation snapshot under the stripe lock.

// appendEpoch persists a document's new invalidation generation so a
// restart refuses entries recorded before it. No-op without a store;
// failures count as store errors (the in-memory bump already happened,
// so correctness of the running process is unaffected).
func (c *Cache) appendEpoch(doc string, gen uint64) {
	st := c.opts.Store
	if st == nil {
		return
	}
	if err := st.AppendEpoch(doc, gen); err != nil {
		c.stats.storeErrors.Add(1)
	}
}

// promote attempts to serve a miss from the durable tier. gen is the
// caller's pre-read generation snapshot. Returns
// ok=false (and counts a reject when a candidate existed) if the tier
// has no usable entry, in which case the caller runs the transforms.
// When tr is non-nil and a candidate existed, the attempt's time goes
// into tr.DiskPromote.
func (c *Cache) promote(doc, user string, gen uint64, tr *obs.ReadTrace) (stream.Body, EntryInfo, bool) {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	st := c.opts.Store
	e, ok := st.GetEntry(doc, user)
	if !ok {
		return stream.Body{}, EntryInfo{}, false
	}
	if tr != nil {
		defer func() { tr.DiskPromote = time.Since(t0) }()
	}
	ck, err := c.space.ContentKey(doc, user)
	if err != nil || !ck.Memoizable ||
		ck.SourceSig != e.SourceSig ||
		ck.UniversalFP != e.UniversalFP ||
		ck.PersonalFP != e.PersonalFP {
		// The document or a chain changed since the entry was demoted
		// (possibly while the process was down), or the chain now embeds
		// external information the key cannot capture.
		c.stats.storePromotionRejects.Add(1)
		return stream.Body{}, EntryInfo{}, false
	}
	body, ok := c.readPromoted(st, e)
	if !ok {
		c.stats.storePromotionRejects.Add(1)
		return stream.Body{}, EntryInfo{}, false
	}

	verifier := property.FuncVerifier{
		VerifierName: "store-recheck",
		Fn: func(time.Time) (bool, error) {
			cur, err := c.space.ContentKey(doc, user)
			if err != nil {
				return false, nil
			}
			return cur.Memoizable &&
				cur.SourceSig == e.SourceSig &&
				cur.UniversalFP == e.UniversalFP &&
				cur.PersonalFP == e.PersonalFP, nil
		},
	}

	ent := &Entry{
		Doc: doc, User: user,
		Signature:    e.Sig, // readPromoted has just proved the body hashes to it
		Cost:         e.Cost,
		Cacheability: property.Unrestricted,
		Verifiers:    []property.Verifier{verifier},
	}
	if !c.tab.Install(Key(doc, user), ent, body, gen, body.HeadSig) {
		// Closed, or invalidated since the caller's snapshot: the probe
		// above may predate the change, so the disk bytes are suspect.
		c.stats.storePromotionRejects.Add(1)
		return stream.Body{}, EntryInfo{}, false
	}

	c.stats.storePromotions.Add(1)
	c.stats.misses.Add(1)
	return ent.blob.body(), EntryInfo{Cacheability: property.Unrestricted, Cost: e.Cost, Verdict: obs.VerdictDisk, Signature: e.Sig}, true
}

// readPromoted reads e's blob from the store, split at the head its
// record claims when the bytes prove the claim, so the install keeps
// that head once for every view built on it. The proof costs no second
// hash: with the head resident in the table only the tail is read, and
// the hash that proves head ‖ tail is the blob proves the head is its
// start; otherwise the whole blob is read and the hash that proves it
// also signs its first HeadLen bytes. A claim the bytes do not prove —
// a length at or past the body's end, a length without a signature, a
// signature of other bytes — leaves the body whole.
func (c *Cache) readPromoted(st *store.Store, e store.EntryMeta) (stream.Body, bool) {
	if e.HeadSig.IsZero() || e.HeadLen <= 0 {
		data, ok := st.GetBlob(e.Sig)
		return stream.Body{Head: data}, ok
	}
	if head := c.tab.blobs.whole(e.HeadSig); len(head) == e.HeadLen {
		if tail, ok := st.GetBlobAfter(e.Sig, head); ok {
			return stream.Body{Head: head, Tail: tail, HeadSig: e.HeadSig}, true
		}
	}
	data, hs, ok := st.GetBlobHead(e.Sig, e.HeadLen)
	if !ok || hs != e.HeadSig {
		return stream.Body{Head: data}, ok
	}
	return stream.Body{Head: data[:e.HeadLen:e.HeadLen], Tail: data[e.HeadLen:], HeadSig: e.HeadSig}, true
}

// demoteEntry writes an installed result behind to the disk tier, under
// ck, the content key the staged read computed it under (its
// StageTrace.Key): key and bytes come from one source fetch and one
// chain snapshot, so the pair is consistent whatever has been
// rewritten since, and a later promote's live probe decides whether it
// is still current. s is data's signature; gen is the install's
// generation snapshot. data is the body as the table holds it: a
// tail-shared body's record names its head, which a promote proves and
// then keeps once (readPromoted).
func (c *Cache) demoteEntry(doc, user string, s sig.Signature, data stream.Body, res property.ReadResult, ck docspace.ContentKey, gen uint64) {
	st := c.opts.Store
	if st == nil || res.Cacheability != property.Unrestricted || !ck.Memoizable {
		return
	}
	if c.tab.Gen(doc) != gen {
		return
	}
	rec := store.EntryMeta{
		Doc: doc, User: user,
		Sig:         s,
		SourceSig:   ck.SourceSig,
		UniversalFP: ck.UniversalFP,
		PersonalFP:  ck.PersonalFP,
		Gen:         gen,
		Cost:        res.Cost,
	}
	if len(data.Tail) > 0 {
		rec.HeadSig, rec.HeadLen = data.HeadSig, len(data.Head)
	}
	if prev, ok := st.GetEntry(doc, user); ok {
		// An identical record, whatever its cost, is already durable;
		// re-appending it would only bloat the segment.
		if prev.Cost = rec.Cost; prev == rec {
			return
		}
	}
	if err := st.PutSigned(s, data); err != nil {
		c.stats.storeErrors.Add(1)
		return
	}
	if err := st.PutEntry(rec); err != nil {
		c.stats.storeErrors.Add(1)
		return
	}
	c.stats.storeDemotions.Add(1)
}

// demoteIntermediate records a computed prefix cut, signed s, in the
// disk tier, behind its bytes: signCut has already put them. Cuts are
// pure content addressing — the (src, fp) key can never serve wrong
// bytes — so no epoch or probe is needed, and no cost: a promoted cut
// is installed at the cost of the read that asks for it.
func (c *Cache) demoteIntermediate(src, fp, s sig.Signature) {
	st := c.opts.Store
	if _, ok := st.GetIntermediate(src, fp); ok {
		return
	}
	if err := st.PutIntermediate(store.IntermediateMeta{
		SourceSig:   src,
		Fingerprint: fp,
		Sig:         s,
	}); err != nil {
		c.stats.storeErrors.Add(1)
		return
	}
	c.stats.storeInterDemotions.Add(1)
}
