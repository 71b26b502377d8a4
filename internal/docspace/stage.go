package docspace

import (
	"encoding/binary"
	"fmt"
	"time"

	"placeless/internal/event"
	"placeless/internal/property"
	"placeless/internal/sig"
	"placeless/internal/stream"
)

// This file splits the read path into memoizable segments. The
// pipeline computes an incremental prefix fingerprint at every
// memoizable property boundary (universal chain first, extending into
// the personal chain), asks the store for the longest cached prefix of
// (source signature, prefix fingerprint), and executes only the
// remaining suffix. Two users whose personal
// chains are [translate, audit] and [translate, summarize] therefore
// share the translate intermediate, not just the universal stage.
//
// The memo keys stay content addressed: (signature of the raw source
// bytes, fingerprint of the ordered chain prefix). The paper's four
// invalidation causes map onto the key cleanly — cause 1 (content
// written) changes the source signature, causes 2 and 3 (property
// add/remove/modify, reorder) change the fingerprint, and cause 4
// (external information) is excluded by marking such properties
// non-memoizable, which poisons every cut at or after them.

// Cut describes one memoizable boundary of a read's combined
// (universal + personal) transform chain, as handed to a
// PrefixIntermediates store.
type Cut struct {
	// FP is the incremental fingerprint of the chain prefix up to and
	// including this boundary.
	FP sig.Signature
	// Cost is the accumulated simulated recompute cost through this
	// boundary (middleware overhead, bit retrieval, and every
	// transform up to the cut) — the store's cost-model input for
	// deciding whether the cut is worth keeping.
	Cost time.Duration
	// Universal marks the cut at the end of the universal chain.
	Universal bool
	// Personal marks cuts strictly inside the personal chain. They are
	// keyed by content like every other cut (users with identical
	// personal prefixes share them), but a store may choose to sweep
	// them on per-user invalidation.
	Personal bool
}

// PrefixIntermediates is the cache-side store for memoized segment
// outputs. It receives every memoizable cut point of a read: the read
// path first probes LongestPrefix with the full ordered
// cut-fingerprint list, resumes from the deepest cached prefix, and
// then walks the remaining cuts through PrefixIntermediate, handing
// each a compute closure for just that segment.
type PrefixIntermediates interface {
	// LongestPrefix returns the deepest cached prefix of (src, fps):
	// the data and index of the largest i such that (src, fps[i]) is
	// resident, or ok=false when none is. fps is ordered shallowest to
	// deepest. The probe is memory-only; slower tiers are consulted
	// per cut by PrefixIntermediate. data is read-only: it may be the
	// store's own bytes.
	LongestPrefix(doc string, src sig.Signature, fps []sig.Signature) (data []byte, idx int, ok bool)
	// PrefixIntermediate returns the memoized output for (src, cut.FP)
	// or computes it via compute — exactly once per key under
	// concurrent misses. The returned slice is read-only, like
	// LongestPrefix's, and compute's result may be kept by the store
	// (the read never modifies either: it hands them to transforms, to
	// apply, which copies a result that would alias them, and — when no
	// transform follows the cut — to its own caller as the body). hit
	// reports whether compute was skipped (served from the store or
	// coalesced onto another caller's computation). cut carries the
	// position metadata so the store can account and cost-gate installs
	// per cut point.
	PrefixIntermediate(doc, user string, src sig.Signature, cut Cut, compute func() ([]byte, error)) (data []byte, hit bool, err error)
}

// SplitIntermediates is a PrefixIntermediates that holds some cuts in
// two parts: the bytes of a shallower cut (the head, signed HeadSig),
// then the bytes a property appended to them (the tail). Its methods
// are LongestPrefix and PrefixIntermediate with the cut as the
// stream.Body the store holds, whole or in those parts. A read takes
// its cuts through them when memo has them, and joins a cut's parts
// only when a transform reads it; when none does, the read's body is
// the cut's, parts and HeadSig included.
type SplitIntermediates interface {
	LongestPrefixParts(doc string, src sig.Signature, fps []sig.Signature) (body stream.Body, idx int, ok bool)
	PrefixIntermediateParts(doc, user string, src sig.Signature, cut Cut, compute func() ([]byte, error)) (body stream.Body, hit bool, err error)
}

// wholeCuts is a PrefixIntermediates that holds every cut whole, seen
// as a SplitIntermediates.
type wholeCuts struct{ PrefixIntermediates }

func (w wholeCuts) LongestPrefixParts(doc string, src sig.Signature, fps []sig.Signature) (stream.Body, int, bool) {
	data, idx, ok := w.LongestPrefix(doc, src, fps)
	return stream.Body{Head: data}, idx, ok
}

func (w wholeCuts) PrefixIntermediateParts(doc, user string, src sig.Signature, cut Cut, compute func() ([]byte, error)) (stream.Body, bool, error) {
	data, hit, err := w.PrefixIntermediate(doc, user, src, cut, compute)
	return stream.Body{Head: data}, hit, err
}

// StageTrace reports what the staged read path did, for cache
// accounting and tests.
type StageTrace struct {
	// Hit reports whether the universal stage was served memoized
	// rather than executed by this read (the boundary cut's data came
	// from the store, a coalesced flight, or a deeper cached prefix).
	Hit bool
	// Key is the content key the returned bytes were computed under:
	// the signature of the source bytes this read fetched, and the
	// fingerprints and memoizability of the chains it executed, all
	// from one chain snapshot (UniversalFP is the boundary cut's prefix
	// fingerprint). It is what ContentKey would have answered at that
	// instant, at no second fetch — a consistent (key, bytes) pair by
	// construction, which a ContentKey call made after the read is
	// not. Zero when no cut was offered.
	Key ContentKey
	// Cuts is the number of memoizable cut points offered to the
	// store, zero when none existed or no store was given; DeepestHit
	// is the index of the cut served by the longest-prefix probe, -1
	// when the probe missed.
	Cuts       int
	DeepestHit int
	// MemoErr reports that the intermediate store failed mid-read and
	// the read degraded to direct execution of the remaining
	// transforms — slow, not broken.
	MemoErr bool
	// BitFetchDur, UniversalDur and PersonalDur are wall-clock stage
	// timings of the read — raw source retrieval, the universal stage
	// (memo lookup on a hit, full execution otherwise), and the
	// personal suffix — for the observability layer's per-stage
	// histograms. Every read that returns content sets all three.
	BitFetchDur  time.Duration
	UniversalDur time.Duration
	PersonalDur  time.Duration
}

// appendChainFrame appends one property's (name, class, key) frame to
// enc using length-prefixed fields. Length prefixes make the encoding
// injective: uvarint lengths are self-delimiting, so no choice of
// names or memo keys — including ones containing NUL or newline
// bytes — can make two distinct frame sequences encode identically.
// (The previous separator framing, "%s\x00%s\x00%s\n", collided a
// two-property chain with a single property whose memo key embedded
// the separators; equal fingerprints are trusted to imply equal bytes,
// so such a collision would silently serve wrong content.)
func appendChainFrame(enc []byte, name, class, key string) []byte {
	enc = binary.AppendUvarint(enc, uint64(len(name)))
	enc = append(enc, name...)
	enc = binary.AppendUvarint(enc, uint64(len(class)))
	enc = append(enc, class...)
	enc = binary.AppendUvarint(enc, uint64(len(key)))
	enc = append(enc, key...)
	return enc
}

// appendPropFrame appends p's chain frame to enc. Every property in
// the chain contributes one, event-only ones included. Properties that
// are not memoizable contribute a marker instead of a key, which is
// sufficient because their presence poisons every cut at or after
// them.
func appendPropFrame(enc []byte, p property.Active) []byte {
	key, _ := frameKey(p)
	return appendChainFrame(enc, p.Name(), ClassActive, key)
}

// frameKey returns p's memo key and true, or the non-memoizable marker
// and false.
func frameKey(p property.Active) (string, bool) {
	if m, ok := p.(property.Memoizable); ok {
		if k, memoOK := m.MemoKey(); memoOK {
			return k, true
		}
	}
	return "!nonmemo", false
}

// fingerprintLocked returns b's universal-chain fingerprint, computing
// and caching it on the node if stale. Caller holds s.mu.
func (s *Space) fingerprintLocked(b *Base) sig.Signature {
	return s.fingerprintNodeLocked(b.node)
}

// fingerprintNodeLocked is fingerprintLocked generalized to any
// attachment point: base-document nodes yield the universal-chain
// fingerprint, reference nodes the personal-chain fingerprint. Both
// cache on the node, with whether every active has a memo contract
// (node.memo); every active-list mutation clears fpValid under s.mu,
// regardless of level. Caller holds s.mu.
func (s *Space) fingerprintNodeLocked(n *node) sig.Signature {
	if n.fpValid {
		return n.fp
	}
	var enc []byte
	n.memo = true
	for _, e := range n.actives {
		key, ok := frameKey(e.prop)
		n.memo = n.memo && ok
		enc = appendChainFrame(enc, e.prop.Name(), ClassActive, key)
	}
	n.fp = sig.Of(enc)
	n.fpValid = true
	return n.fp
}

// UniversalFingerprint returns the current universal-chain fingerprint
// for doc. It changes exactly when Attach/Detach/Replace/Reorder
// change the content-visible universal chain (paper invalidation
// causes 2 and 3).
func (s *Space) UniversalFingerprint(doc string) (sig.Signature, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bases[doc]
	if !ok {
		return sig.Signature{}, fmt.Errorf("%w: %s", ErrNoDocument, doc)
	}
	return s.fingerprintLocked(b), nil
}

// snapshotChains copies both nodes' active lists and computes the
// incremental prefix fingerprint at every boundary of the combined
// chain in one critical section, so the fingerprints handed to the
// cache describe exactly the chain this read executes. fps[k] is the
// fingerprint of the first k combined properties (fps[0] covers the
// empty prefix); fps[len(uProps)] is bit-identical to the cached
// universal fingerprint because both digest the same frame encoding.
// personalFP is the personal chain's own fingerprint, the third
// component of the read's ContentKey.
func (s *Space) snapshotChains(b *Base, r *Ref) (uProps, pProps []property.Active, fps []sig.Signature, personalFP sig.Signature) {
	s.mu.Lock()
	defer s.mu.Unlock()
	personalFP = s.fingerprintNodeLocked(r.node)
	uProps, pProps = activesLocked(b.node), activesLocked(r.node)
	fps = make([]sig.Signature, 0, len(uProps)+len(pProps)+1)
	var enc []byte
	fps = append(fps, sig.Of(enc))
	for _, p := range uProps {
		enc = appendPropFrame(enc, p)
		fps = append(fps, sig.Of(enc))
	}
	for _, p := range pProps {
		enc = appendPropFrame(enc, p)
		fps = append(fps, sig.Of(enc))
	}
	return uProps, pProps, fps, personalFP
}

// memoOK reports whether p's read-path transform may be memoized.
func memoOK(p property.Active) bool {
	_, ok := frameKey(p)
	return ok
}

// stagedRun is the mutable state of one staged read's execution walk.
type stagedRun struct {
	rc      *property.ReadContext
	trace   *StageTrace
	ts      []stream.Transform
	uEnd    int // ts[:uEnd] is the universal stage
	cur     stream.Body
	at      int  // ts[:at] already applied to cur
	cut     bool // cur is a cut's bytes, as the store handed them
	crossed bool
	tUni    time.Time
	tPers   time.Time
}

// cross marks the universal/personal boundary as passed: hit reports
// whether the boundary data came from the store rather than execution.
func (sr *stagedRun) cross(hit bool) {
	if sr.crossed {
		return
	}
	sr.crossed = true
	sr.trace.Hit = hit
	sr.trace.UniversalDur = time.Since(sr.tUni)
	sr.tPers = time.Now()
}

// finish executes every transform not yet applied and returns the
// final content. If the universal boundary has not been passed (no
// cuts offered, a poisoned boundary cut, or a store failure early in
// the walk), the remainder runs in two chunks split at the boundary so
// the per-stage timings stay attributable. When no transform follows
// the last cut, the body is that cut's, in the parts the store handed
// it.
func (sr *stagedRun) finish() (stream.Body, property.ReadResult, StageTrace, error) {
	body := sr.cur
	if !sr.cut || sr.at < len(sr.ts) {
		ro := body.Bytes()
		cur := ro
		if !sr.crossed {
			for _, t := range sr.ts[sr.at:sr.uEnd] {
				cur = t(cur)
			}
			sr.at = sr.uEnd
			sr.cross(false)
		}
		body = stream.Body{Head: apply(ro, cur, sr.ts[sr.at:])}
	}
	sr.cross(false)
	sr.trace.PersonalDur = time.Since(sr.tPers)
	return body, sr.rc.Result(), *sr.trace, nil
}

// ReadDocumentStaged executes the read path for user's reference to
// doc (paper §2, Figure 2): the bit-provider produces the raw content,
// base-document properties' transforms run on it first, then reference
// properties'; getInputStream is dispatched at both levels. The
// returned ReadResult carries the aggregated cacheability vote, the
// verifiers, and the replacement cost for the cache. The walk is split
// at every memoizable property boundary, and memo, when not nil, is
// consulted for cached prefixes.
//
// The split preserves read-path semantics exactly:
//
//   - Every property's WrapInput still runs on every read, so
//     cacheability votes, verifiers, and replacement cost accumulate
//     identically whether or not any segment is served memoized.
//   - getInputStream events are still dispatched at both levels on
//     every read, so event-only properties (audit trails) fire whether
//     or not any segment is served memoized.
//   - Only the data flow differs: on a prefix hit the covered
//     transforms (and their simulated Sleep costs) are skipped and the
//     remaining suffix runs over the memoized bytes.
//
// The store is offered a cut at every boundary whose prefix is fully
// memoizable. A non-memoizable byte-touching property
// poisons every cut at or after its position; if no cut survives — or
// memo is nil — the same walk runs with zero cuts (raw fetch, universal
// chunk, personal chunk, each timed) and the trace reports no cuts. A
// store error mid-walk degrades to direct execution of the remaining
// transforms (slow, not broken) and sets trace.MemoErr.
//
// When no transform follows the last cut the body is that cut's, as
// read-only as memo's own and in the parts memo holds it; otherwise it
// is whole and the caller owns it.
func (s *Space) ReadDocumentStaged(doc, user string, memo PrefixIntermediates) (stream.Body, property.ReadResult, StageTrace, error) {
	var trace StageTrace

	s.mu.Lock()
	r, err := s.resolveRefLocked(doc, user)
	if err != nil {
		s.mu.Unlock()
		return stream.Body{}, property.ReadResult{}, trace, err
	}
	b := r.base
	s.mu.Unlock()

	now := s.clk.Now()
	rc := &property.ReadContext{Doc: doc, User: user, Now: now, Sleep: s.clk.Sleep}
	if d := s.AccessOverhead(); d > 0 {
		// Middleware cost, as in ReadDocument.
		s.clk.Sleep(d)
		rc.AddCost(d)
	}

	// The source is only read — hashed, handed to transforms, copied by
	// apply wherever a result would alias it — so a provider's bytes
	// are used as they are.
	tOpen := time.Now()
	raw, err := b.bits.Open(rc)
	if err != nil {
		return stream.Body{}, property.ReadResult{}, trace, err
	}
	trace.BitFetchDur = time.Since(tOpen)

	uProps, pProps, fps, personalFP := s.snapshotChains(b, r)
	nU := len(uProps)

	// Run every property's hook in chain order, recording a candidate
	// cut at each boundary where the prefix so far is fully memoizable
	// and the boundary is observable: after every byte-touching
	// property, plus the end of the universal chain (whose fingerprint
	// moves on event-only attachments too).
	var ts []stream.Transform
	var cuts []Cut
	var cutEnd []int // cuts[k] is the output of ts[:cutEnd[k]]
	uEnd := 0
	poisoned := false
	if nU == 0 {
		// Empty universal chain: the boundary precedes every property.
		cuts = append(cuts, Cut{FP: fps[0], Cost: rc.CostSoFar(), Universal: true})
		cutEnd = append(cutEnd, 0)
	}
	combined := make([]property.Active, 0, nU+len(pProps))
	combined = append(append(combined, uProps...), pProps...)
	for i, p := range combined {
		t := p.WrapInput(rc)
		if t != nil {
			ts = append(ts, t)
			if !memoOK(p) {
				// A byte-touching property without a memo contract
				// (e.g. one embedding external information, paper
				// cause 4) forces re-execution of everything from its
				// position on every read.
				poisoned = true
			}
		}
		atBoundary := i == nU-1
		if atBoundary {
			uEnd = len(ts)
		}
		if poisoned || (t == nil && !atBoundary) {
			continue
		}
		cuts = append(cuts, Cut{
			FP:        fps[i+1],
			Cost:      rc.CostSoFar(),
			Universal: atBoundary,
			Personal:  i >= nU,
		})
		cutEnd = append(cutEnd, len(ts))
	}

	boundaryIdx := -1
	for i, c := range cuts {
		if c.Universal {
			boundaryIdx = i
		}
	}

	// Events fire on every read, memoized or not — side-effecting
	// properties like audit trails must observe each access.
	e := event.Event{Kind: event.GetInputStream, Doc: doc, User: user, Time: now}
	b.node.registry.Dispatch(e)
	r.node.registry.Dispatch(e)

	sr := &stagedRun{rc: rc, trace: &trace, ts: ts, uEnd: uEnd, cur: stream.Body{Head: raw}, tUni: time.Now()}
	if memo == nil || len(cuts) == 0 {
		// No cut to offer a store, so no key to build: the source is
		// not hashed and the walk is finish()'s two chunks.
		return sr.finish()
	}

	srcSig := sig.Of(raw)
	trace.Key = ContentKey{SourceSig: srcSig, UniversalFP: fps[nU], PersonalFP: personalFP, Memoizable: !poisoned}
	trace.Cuts = len(cuts)
	trace.DeepestHit = -1

	next := 0
	probe := make([]sig.Signature, len(cuts))
	for i, c := range cuts {
		probe[i] = c.FP
	}
	parts, ok := memo.(SplitIntermediates)
	if !ok {
		parts = wholeCuts{memo}
	}
	if body, idx, ok := parts.LongestPrefixParts(doc, srcSig, probe); ok {
		sr.cur, sr.at, sr.cut, next = body, cutEnd[idx], true, idx+1
		trace.DeepestHit = idx
		if boundaryIdx >= 0 && idx >= boundaryIdx {
			sr.cross(true)
		}
	}

	for ; next < len(cuts); next++ {
		prev, seg := sr.cur, sr.ts[sr.at:cutEnd[next]]
		compute := func() ([]byte, error) {
			in := prev.Bytes()
			return apply(in, in, seg), nil
		}
		body, hit, err := parts.PrefixIntermediateParts(doc, user, srcSig, cuts[next], compute)
		if err != nil {
			// Transforms cannot fail, so the store is sick, not the
			// chain: degrade to direct execution of the remaining
			// transforms.
			trace.MemoErr = true
			return sr.finish()
		}
		sr.cur, sr.at, sr.cut = body, cutEnd[next], true
		if next == boundaryIdx {
			sr.cross(hit)
		}
	}
	return sr.finish()
}

// ContentKey is the durable identity of one (doc, user) read result:
// the content signature of the raw source plus the fingerprints of
// the universal and personal chains that transformed it. For chains
// whose byte-touching properties are all memoizable, equal keys imply
// identical output bytes — so a persisted result carrying this key
// can be proven current without re-executing any transform, which is
// exactly the durable tier's promotion check after a restart.
type ContentKey struct {
	SourceSig   sig.Signature
	UniversalFP sig.Signature
	PersonalFP  sig.Signature
	// Memoizable reports whether every byte-touching property at both
	// levels carries a memo contract. When false the key proves
	// nothing — some transform embeds information outside the key
	// (paper invalidation cause 4) — and the result must not be
	// persisted or promoted.
	Memoizable bool
}

// ContentKey computes the current content key for user's reference to
// doc. It proves the source half of the key with sourceSig — the
// verifiers of the document's last probe, or one source fetch and its
// hash — and executes no transforms and dispatches no read events:
// this is a validation probe, not a document access.
func (s *Space) ContentKey(doc, user string) (ContentKey, error) {
	s.mu.Lock()
	r, err := s.resolveRefLocked(doc, user)
	if err != nil {
		s.mu.Unlock()
		return ContentKey{}, err
	}
	b := r.base
	key := ContentKey{
		UniversalFP: s.fingerprintNodeLocked(b.node),
		PersonalFP:  s.fingerprintNodeLocked(r.node),
	}
	// A chain whose every active has a memo contract is memoizable
	// whatever transforms they return; only a chain with an active
	// that has none asks them (chainMemoizable).
	uMemo, pMemo := b.node.memo, r.node.memo
	var uProps, pProps []property.Active
	if !uMemo {
		uProps = activesLocked(b.node)
	}
	if !pMemo {
		pProps = activesLocked(r.node)
	}
	s.mu.Unlock()

	key.Memoizable = (uMemo || s.chainMemoizable(doc, user, uProps)) &&
		(pMemo || s.chainMemoizable(doc, user, pProps))

	if key.SourceSig, err = s.sourceSig(b); err != nil {
		return ContentKey{}, err
	}
	return key, nil
}

// sourceStamp is one source version's signature and the verifiers the
// bit-provider's fetch of it returned — the provider's own: an mtime
// poll, a TTL, a Composite over a composition's parts. writes is the
// base's WriteDocument count read before that fetch.
type sourceStamp struct {
	sig    sig.Signature
	valid  property.Composite
	writes uint64
}

// sourceSig returns the signature of b's current source bytes. While
// the stamp's verifiers hold and no store went through WriteDocument
// since it was taken, that costs what the verifiers cost (one stat for
// a file); otherwise it opens the bit-provider against a throwaway
// context, hashes the bytes and stamps them. A store through the
// space bumps b.writes after the bytes land, so a write inside one
// mtime tick still retires the stamp; an out-of-band edit is caught by
// the same verifiers a cache hit trusts. A provider that registers no
// verifier is never stamped.
func (s *Space) sourceSig(b *Base) (sig.Signature, error) {
	now := s.clk.Now()
	if st := b.stamp.Load(); st != nil && st.writes == b.writes.Load() {
		// A verifier's error fails the check, as ok reports: fetch again.
		if ok, _ := st.valid.Check(now); ok {
			return st.sig, nil
		}
	}
	writes := b.writes.Load()
	rc := &property.ReadContext{Doc: b.id, Now: now, Sleep: func(time.Duration) {}}
	raw, err := b.bits.Open(rc)
	if err != nil {
		return sig.Signature{}, err
	}
	st := &sourceStamp{sig: sig.Of(raw), valid: property.Composite{Parts: rc.Result().Verifiers}, writes: writes}
	if len(st.valid.Parts) > 0 {
		b.stamp.Store(st)
	}
	return st.sig, nil
}

// chainMemoizable reports whether every property in props that
// returns a read-path transform has a memo contract. WrapInput runs
// against a throwaway context: its only side effects are context
// accumulation (votes, verifiers, cost), which the probe discards.
func (s *Space) chainMemoizable(doc, user string, props []property.Active) bool {
	rc := &property.ReadContext{Doc: doc, User: user, Now: s.clk.Now(), Sleep: func(time.Duration) {}}
	for _, p := range props {
		if t := p.WrapInput(rc); t != nil && !memoOK(p) {
			return false
		}
	}
	return true
}
