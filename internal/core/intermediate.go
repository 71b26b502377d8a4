package core

import (
	"bytes"
	"strings"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/sig"
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
//   - cause 4 (external information) never reaches this store, because
//     properties embedding external information are non-memoizable and
//     poison every cut at or after them.
// A key can therefore never serve wrong bytes; an invalidation merely
// strands the old keys, and invalidateDoc sweeps stranded intermediates
// eagerly so they do not have to age out of the policy.
//
// Storing every prefix of a long chain is quadratic in bytes; every
// memoizable cut is installed, and the GDS policy prices resident cuts
// by rebuild cost per byte when choosing eviction victims.
//
// Locking: interMu ranks with the shard locks — policyMu and blobMu
// nest under it, it is never held together with a shard lock, and the
// compute closure (property transforms, simulated sleeps, possible
// notifier re-entry) always runs with no cache lock held.

// interPrefix namespaces intermediate keys inside the shared
// replacement policy. Entry keys are doc + NUL + user; document ids
// containing NUL are rejected at registration (docspace.ErrBadID), so
// the namespaces cannot collide.
const interPrefix = "\x00i\x00"

// interKey builds the policy/store key for a memoized prefix output.
func interKey(src, fp sig.Signature) string {
	return interPrefix + string(src[:]) + string(fp[:])
}

// isInterKey reports whether a policy victim is an intermediate.
func isInterKey(k string) bool { return strings.HasPrefix(k, interPrefix) }

// interEntry is one memoized prefix output. doc is recorded so
// document-wide invalidation can sweep stranded keys; user is set only
// for cuts inside the personal chain (empty for universal-prefix
// cuts), so a per-user invalidation can sweep that user's personal
// cuts. A personal cut shared by users with identical chain prefixes
// is tagged with whoever installed it — sweeping it on that user's
// invalidation merely costs the others a recompute.
type interEntry struct {
	doc       string
	user      string
	signature sig.Signature
	size      int64
}

// iflight is one in-progress segment execution; the per-(src,
// fingerprint) single-flight that coalesces concurrent misses from
// different users. Same protocol as flight: the leader populates
// data/err and closes done; close(done) is the happens-before edge.
type iflight struct {
	done chan struct{}
	data []byte
	sig  sig.Signature // of data
	err  error
}

// readCuts is the docspace.PrefixIntermediates one miss hands its
// staged read: the cache's intermediate store, plus a note of the
// deepest cut the read was handed and the signature those bytes are
// interned under. When no transform follows that cut — the benchmark's
// chains all end in a memoizable property — the read's result is the
// same bytes, and sign answers without hashing them a second time.
type readCuts struct {
	c       *Cache
	last    []byte
	lastSig sig.Signature
}

// PrefixIntermediate implements docspace.PrefixIntermediates for one
// cut of the prefix pipeline.
func (rc *readCuts) PrefixIntermediate(doc, user string, src sig.Signature, cut docspace.Cut, compute func() ([]byte, error)) ([]byte, bool, error) {
	owner := ""
	if cut.Personal {
		owner = user
	}
	data, s, hit, err := rc.c.intermediate(doc, owner, src, cut.FP, cut.Cost, cut.Universal, compute)
	if err == nil {
		rc.last, rc.lastSig = data, s
	}
	return data, hit, err
}

// LongestPrefix implements docspace.PrefixIntermediates: the probe is
// memory-only — the durable tier is consulted per cut by
// PrefixIntermediate, which also handles in-flight coalescing.
func (rc *readCuts) LongestPrefix(doc string, src sig.Signature, fps []sig.Signature) ([]byte, int, bool) {
	data, s, idx, ok := rc.c.longestPrefix(src, fps)
	if ok {
		rc.last, rc.lastSig = data, s
	}
	return data, idx, ok
}

// sign returns data's signature, hashing only if data is not the last
// cut's bytes over again. A nil receiver (memoization off) hashes.
func (rc *readCuts) sign(data []byte) sig.Signature {
	if rc != nil && !rc.lastSig.IsZero() && bytes.Equal(rc.last, data) {
		return rc.lastSig
	}
	return sig.Of(data)
}

// longestPrefix scans fps deepest-first and returns the first resident
// (src, fp) output with its signature.
func (c *Cache) longestPrefix(src sig.Signature, fps []sig.Signature) ([]byte, sig.Signature, int, bool) {
	c.interMu.Lock()
	for i := len(fps) - 1; i >= 0; i-- {
		k := interKey(src, fps[i])
		e := c.inter[k]
		if e == nil {
			continue
		}
		data, _, _ := c.blobDataCRC(e.signature)
		if data == nil {
			// Blob store swept by a concurrent Close; drop the
			// dangling entry and keep probing shallower cuts.
			c.dropIntermediateLocked(k)
			continue
		}
		c.policyMu.Lock()
		c.policy.Access(k)
		c.policyMu.Unlock()
		c.interMu.Unlock()
		c.stats.prefixHits.Add(1)
		c.stats.intermediateHits.Add(1)
		c.stats.bytesRecomputedSaved.Add(int64(len(data)))
		c.stats.prefixSavedBytes.Add(int64(len(data)))
		out := make([]byte, len(data))
		copy(out, data)
		return out, e.signature, i, true
	}
	c.interMu.Unlock()
	return nil, sig.Zero, -1, false
}

// intermediate returns the memoized output for (src, fp), or computes
// it via compute — exactly once per key under concurrent misses. cost
// is the accumulated simulated recompute cost through the cut, the
// policy's cost input. universal marks the cut that completes the
// universal chain (the accounting boundary for UniversalStageRuns).
// The returned slice is the caller's to keep and the signature is its
// own; hit reports whether compute was skipped.
func (c *Cache) intermediate(doc, user string, src, fp sig.Signature, cost time.Duration, universal bool, compute func() ([]byte, error)) ([]byte, sig.Signature, bool, error) {
	k := interKey(src, fp)
	for {
		c.interMu.Lock()
		if e := c.inter[k]; e != nil {
			data, _, _ := c.blobDataCRC(e.signature)
			if data == nil {
				// Blob store swept by a concurrent Close; drop the
				// dangling entry and recompute.
				c.dropIntermediateLocked(k)
				c.interMu.Unlock()
				continue
			}
			c.policyMu.Lock()
			c.policy.Access(k)
			c.policyMu.Unlock()
			c.interMu.Unlock()
			c.stats.intermediateHits.Add(1)
			c.stats.bytesRecomputedSaved.Add(int64(len(data)))
			c.stats.prefixSavedBytes.Add(int64(len(data)))
			out := make([]byte, len(data))
			copy(out, data)
			return out, e.signature, true, nil
		}
		if f := c.interFlights[k]; f != nil {
			c.interMu.Unlock()
			<-f.done
			if f.err != nil {
				// The leader's failure may be transient (and its
				// sleep costs were charged to the leader); retry
				// rather than fanning one error out to every waiter.
				continue
			}
			c.stats.intermediateHits.Add(1)
			c.stats.bytesRecomputedSaved.Add(int64(len(f.data)))
			c.stats.prefixSavedBytes.Add(int64(len(f.data)))
			out := make([]byte, len(f.data))
			copy(out, f.data)
			return out, f.sig, true, nil
		}
		f := &iflight{done: make(chan struct{})}
		c.interFlights[k] = f
		c.interMu.Unlock()

		// The durable tier sits between the in-memory store and the
		// compute closure: (src, fp) is content-addressed, so a disk
		// record needs no validation beyond the store's own checksum
		// and signature verification — equal keys imply equal bytes.
		// Either way the bytes are signed here, once, before interMu
		// is taken again: by GetBlob's proof, or by hashing them.
		var data []byte
		var s sig.Signature
		var err error
		fromDisk := false
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
				s = sig.Of(data)
			}
		}
		f.data, f.sig, f.err = data, s, err
		c.interMu.Lock()
		delete(c.interFlights, k)
		if err == nil && !c.closed.Load() {
			c.storeIntermediateLocked(k, doc, user, s, data, cost)
			c.stats.prefixInstalls.Add(1)
		}
		c.interMu.Unlock()
		close(f.done)
		if err != nil {
			return nil, sig.Zero, false, err
		}
		if !fromDisk {
			c.demoteIntermediate(src, fp, s, data, cost)
		}
		c.evict("")
		return data, s, fromDisk, nil
	}
}

// storeIntermediateLocked installs a computed prefix output, signed s.
// Caller holds interMu; the key is flight-protected, so no entry can already
// exist, but a racing invalidation sweep between our delete of the
// flight and this install is impossible because both run under
// interMu — the sweep either ran before (nothing to remove) or runs
// after (removes this entry, which is merely a lost memo, not a
// correctness problem: the key's bytes are right by construction).
func (c *Cache) storeIntermediateLocked(k, doc, user string, s sig.Signature, data []byte, cost time.Duration) {
	c.internBlob(s, data, false)
	c.inter[k] = &interEntry{doc: doc, user: user, signature: s, size: int64(len(data))}
	c.stats.intermediateEntries.Add(1)
	c.stats.intermediateBytes.Add(int64(len(data)))
	c.policyMu.Lock()
	c.policy.Insert(k, int64(len(data)), cost)
	c.policyMu.Unlock()
}

// dropIntermediate removes one intermediate and releases its blob
// reference, reporting whether it was present.
func (c *Cache) dropIntermediate(k string) bool {
	c.interMu.Lock()
	defer c.interMu.Unlock()
	return c.dropIntermediateLocked(k)
}

// dropIntermediateLocked is dropIntermediate under a held interMu.
func (c *Cache) dropIntermediateLocked(k string) bool {
	e := c.inter[k]
	if e == nil {
		return false
	}
	delete(c.inter, k)
	c.policyMu.Lock()
	c.policy.Remove(k)
	c.policyMu.Unlock()
	c.stats.intermediateEntries.Add(-1)
	c.stats.intermediateBytes.Add(-e.size)
	c.unrefBlob(e.signature, false)
	return true
}

// sweepIntermediates drops every intermediate recorded for doc —
// called by document-wide invalidation. The dropped keys are already
// unreachable (the invalidating change moved the source signature or
// the fingerprints); sweeping reclaims their bytes immediately instead
// of waiting for the policy to age them out.
func (c *Cache) sweepIntermediates(doc string) {
	c.interMu.Lock()
	defer c.interMu.Unlock()
	for k, e := range c.inter {
		if e.doc == doc {
			c.dropIntermediateLocked(k)
		}
	}
}

// sweepUserIntermediates drops doc's personal-cut intermediates
// installed by user — called by per-user invalidation. A personal
// change moves that user's cut fingerprints, stranding the old keys;
// universal-prefix cuts (user == "") are untouched, because a personal
// change cannot affect universal-stage output.
func (c *Cache) sweepUserIntermediates(doc, user string) {
	c.interMu.Lock()
	defer c.interMu.Unlock()
	for k, e := range c.inter {
		if e.doc == doc && e.user != "" && e.user == user {
			c.dropIntermediateLocked(k)
		}
	}
}

// clearIntermediates empties the store on Close.
func (c *Cache) clearIntermediates() {
	c.interMu.Lock()
	defer c.interMu.Unlock()
	c.inter = make(map[string]*interEntry)
	c.stats.intermediateEntries.Store(0)
	c.stats.intermediateBytes.Store(0)
}
