package core

import (
	"bytes"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/sig"
	"placeless/internal/stream"
)

// Content-addressed memoization of read-path prefixes (enabled by
// Options.Memoize). The document space splits the read path at every
// memoizable property boundary (docspace.ReadDocumentStaged) and hands
// the cache a compute closure per segment; the cache keys each
// boundary's output by (signature of the raw source bytes, incremental
// fingerprint of the chain prefix) and reuses it across users. N users
// missing on one document execute the shared universal prefix once,
// and users whose personal chains share a prefix — [translate, audit]
// and [translate, summarize] — share the translate intermediate too:
// the longest-prefix probe resumes each read from the deepest cached
// cut and only the remaining suffix executes.
//
// Content addressing makes staleness structural rather than policed:
//   - cause 1 (content written) changes the source signature,
//   - causes 2–3 (property add/remove/modify/reorder) change every
//     fingerprint from the mutated position on,
//   - cause 4 (external information) never reaches a cut, because
//     properties embedding external information are non-memoizable and
//     poison every cut at or after them.
// A key can therefore never serve wrong bytes; an invalidation merely
// strands the old keys, and its visit of the document's keys drops the
// stranded cuts with the entries so they do not have to age out of the
// policy.
//
// Storing every prefix of a long chain is quadratic in bytes; every
// memoizable cut is installed, and the GDS policy prices resident cuts
// by rebuild cost per byte when choosing eviction victims.
//
// A cut is not a store beside the entry table: it is an Entry of the
// table (table.go) under a key of its own namespace, marked cut, so it
// shares the table's install, drop, eviction, document index and
// single-flight protocol, and the replacement policy weighs a memoized
// prefix against full entries on equal terms.
// The compute closure (property transforms, simulated sleeps, possible
// notifier re-entry) always runs with no cache lock held.

// interPrefix namespaces cut keys inside the index and the replacement
// policy. Entry keys are doc + NUL + user; document ids containing NUL
// are rejected at registration (docspace.ErrBadID), so the namespaces
// cannot collide.
const interPrefix = "\x00i\x00"

// interKey builds the key for a memoized prefix output.
func interKey(src, fp sig.Signature) string {
	return interPrefix + string(src[:]) + string(fp[:])
}

// readCuts is the docspace.SplitIntermediates one miss hands its
// staged read: the cache's cut entries, handed on in the parts the
// table holds them, plus a note of the deepest cut the read was handed
// and the signature those bytes are interned under. When no transform
// follows that cut — the benchmark's chains all end in a memoizable
// property — the read's result is the same bytes, and sign answers
// without hashing them a second time; a tail-shared cut comes back in
// its parts, never joined, with its head's signature.
//
// Each cut a read computes is installed with the read's previous cut
// as its base: when a property only appended to those bytes (a
// personal watermark on the universal output), the table keeps the
// appended tail and shares the rest (Table.Install). The read's
// (doc, user) entry then shares that cut's blob by signature.
type readCuts struct {
	c       *Cache
	last    stream.Body
	lastSig sig.Signature
}

// PrefixIntermediateParts implements docspace.SplitIntermediates for
// one cut of the prefix pipeline.
func (rc *readCuts) PrefixIntermediateParts(doc, user string, src sig.Signature, cut docspace.Cut, compute func() ([]byte, error)) (stream.Body, bool, error) {
	owner := ""
	if cut.Personal {
		owner = user
	}
	data, s, hit, err := rc.c.intermediate(doc, owner, src, cut.FP, cut.Cost, cut.Universal, rc.lastSig, compute)
	if err == nil {
		rc.last, rc.lastSig = data, s
	}
	return data, hit, err
}

// LongestPrefixParts implements docspace.SplitIntermediates: the probe
// is memory-only — the durable tier is consulted per cut by
// PrefixIntermediateParts, which also handles in-flight coalescing.
func (rc *readCuts) LongestPrefixParts(doc string, src sig.Signature, fps []sig.Signature) (stream.Body, int, bool) {
	data, s, idx, ok := rc.c.longestPrefix(src, fps)
	if ok {
		rc.last, rc.lastSig = data, s
	}
	return data, idx, ok
}

// PrefixIntermediate is PrefixIntermediateParts with the cut joined.
func (rc *readCuts) PrefixIntermediate(doc, user string, src sig.Signature, cut docspace.Cut, compute func() ([]byte, error)) ([]byte, bool, error) {
	data, hit, err := rc.PrefixIntermediateParts(doc, user, src, cut, compute)
	return data.Bytes(), hit, err
}

// LongestPrefix is LongestPrefixParts with the cut joined.
func (rc *readCuts) LongestPrefix(doc string, src sig.Signature, fps []sig.Signature) ([]byte, int, bool) {
	data, idx, ok := rc.LongestPrefixParts(doc, src, fps)
	return data.Bytes(), idx, ok
}

// sign returns data's signature, hashing only if data is not the last
// cut's bytes over again (a cut held in two parts comes back in them,
// and its signature with it). A nil receiver (memoization off) hashes.
func (rc *readCuts) sign(data []byte) sig.Signature {
	if rc != nil && !rc.lastSig.IsZero() && len(rc.last.Tail) == 0 && bytes.Equal(rc.last.Head, data) {
		return rc.lastSig
	}
	return sig.Of(data)
}

// cutServed accounts data as a cut handed out without recomputation
// and returns it. The staged read only reads a cut's bytes, so they
// are handed on as they are, the table's own included.
func (c *Cache) cutServed(data stream.Body) stream.Body {
	c.stats.intermediateHits.Add(1)
	c.stats.bytesRecomputedSaved.Add(int64(data.Len()))
	return data
}

// longestPrefix scans fps deepest-first and returns the first resident
// (src, fp) output, read-only and in the parts the table holds it,
// with its signature.
func (c *Cache) longestPrefix(src sig.Signature, fps []sig.Signature) (stream.Body, sig.Signature, int, bool) {
	for i := len(fps) - 1; i >= 0; i-- {
		k := interKey(src, fps[i])
		if e, data := c.tab.Lookup(k); e != nil {
			c.tab.Confirm(k, e) // marks the access; the bytes are right either way
			c.stats.prefixHits.Add(1)
			return c.cutServed(data), e.Signature, i, true
		}
	}
	return stream.Body{}, sig.Zero, -1, false
}

// intermediate returns the memoized output for (src, fp), or computes
// it via compute — exactly once per key under concurrent misses: the
// residency check and the flight registration share one hold of the
// stripe lock. cost is the accumulated simulated recompute cost
// through the cut, the policy's cost input. universal marks the cut
// that completes the universal chain (the accounting boundary for
// UniversalStageRuns). base names the read's previous cut, which a
// computed cut is installed on (leadCut). The returned bytes are
// read-only — they may be the table's own, in its parts — and the
// signature is theirs; hit reports whether compute was skipped.
func (c *Cache) intermediate(doc, user string, src, fp sig.Signature, cost time.Duration, universal bool, base sig.Signature, compute func() ([]byte, error)) (stream.Body, sig.Signature, bool, error) {
	k := interKey(src, fp)
	for {
		e, f, leader := c.tab.join(k, true)
		if e != nil {
			c.tab.Confirm(k, e)
			return c.cutServed(e.blob.body()), e.Signature, true, nil
		}
		if !leader {
			<-f.done
			if f.err != nil {
				// The leader's failure may be transient (and its
				// sleep costs were charged to the leader); retry
				// rather than fanning one error out to every waiter.
				continue
			}
			return c.cutServed(f.data), f.info.Signature, true, nil // the leader's own bytes, whole
		}
		var fromDisk, stored bool
		data, info, err := c.tab.lead(k, f, func() (data stream.Body, info EntryInfo, err error) {
			data.Head, info.Signature, fromDisk, stored, err = c.leadCut(k, &Entry{Doc: doc, User: user, Cost: cost, cut: true}, src, fp, universal, base, compute)
			return data, info, err
		})
		if err == nil && stored {
			c.demoteIntermediate(src, fp, info.Signature)
		}
		return data, info.Signature, fromDisk, err
	}
}

// leadCut is the leader's half of intermediate: produce the bytes of
// (src, fp) and install them as e under k, on base when they begin
// with its bytes. stored reports that the computed bytes went to the
// disk tier, where their cut record is still to follow.
func (c *Cache) leadCut(k string, e *Entry, src, fp sig.Signature, universal bool, base sig.Signature, compute func() ([]byte, error)) (data []byte, s sig.Signature, fromDisk, stored bool, err error) {
	// The durable tier sits between the in-memory table and the
	// compute closure: (src, fp) is content-addressed, so a disk
	// record needs no validation beyond the store's own checksum
	// and signature verification — equal keys imply equal bytes.
	// Either way the bytes are signed here, once, before the stripe
	// lock is taken again: by GetBlob's proof, or by signCut.
	if st := c.opts.Store; st != nil {
		if im, ok := st.GetIntermediate(src, fp); ok {
			if d, ok := st.GetBlob(im.Sig); ok {
				data, s, fromDisk = d, im.Sig, true
				c.stats.storeInterPromotions.Add(1)
				c.stats.intermediateHits.Add(1)
				c.stats.bytesRecomputedSaved.Add(int64(len(d)))
			}
		}
	}
	if !fromDisk {
		if universal {
			c.stats.universalStageRuns.Add(1)
		}
		c.stats.prefixSegmentRuns.Add(1)
		if data, err = compute(); err == nil {
			s, stored = c.signCut(data)
		}
	}
	if err != nil {
		return nil, sig.Zero, false, false, err
	}
	e.Signature = s
	// The table may keep data itself; the staged read it goes back to
	// only reads it.
	if c.tab.Install(k, e, stream.Body{Head: data}, 0, base) { // a cut has no generation to check
		c.stats.prefixInstalls.Add(1)
	}
	return data, s, fromDisk, stored, nil
}

// signCut returns the signature a computed cut is interned under. With
// a disk tier attached the store computes it, as it queues the cut's
// bytes — the one hash they get — and stored reports that the put
// succeeded; without one the cut is hashed here.
func (c *Cache) signCut(data []byte) (s sig.Signature, stored bool) {
	st := c.opts.Store
	if st == nil {
		return sig.Of(data), false
	}
	s, err := st.PutBlob(data)
	if err != nil {
		c.stats.storeErrors.Add(1)
	}
	return s, err == nil
}
