// Package store is the durable tier beneath the in-memory
// signature-addressed blob store: one append-only stream of binary
// segments holds the bytes (keyed by content signature) and, in
// records of a second kind, which cache entries and universal
// intermediates those bytes back, plus the invalidation epochs needed
// to refuse entries invalidated while the process was down. Every
// record is checksummed, and everything is rebuilt by one scan on open.
//
// The paper's cache pays for every miss with transform re-execution,
// so a restart otherwise means an empty store and a thundering herd of
// chain re-runs. This tier keeps what is expensive to rebuild — the
// caller applies the cost policy; the store applies the safety policy:
// a record is served only if its checksum and content signature verify
// and its generation is not older than the last recorded invalidation
// epoch for its document.
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"placeless/internal/sig"
	"placeless/internal/stream"
)

// DefaultSegmentMaxBytes is the roll threshold for segments.
const DefaultSegmentMaxBytes = 64 << 20

// Puts are written a batch at a time (see flushLocked): a batch goes
// to the active segment once it has waited flushWindow or grown to
// flushBytes. A kill -9 therefore loses at most the puts of one
// window; measured on the live benchmark's churn_mix (EXPERIMENTS.md,
// third ledger-picked change) a window holds about seven demotions,
// twenty write(2) calls before batching and one after.
const (
	flushWindow = 5 * time.Millisecond
	flushBytes  = 256 << 10
)

// EntryMeta describes one durable cache entry: enough to re-install
// the entry in memory and to re-derive its validity without trusting
// anything but content addresses.
type EntryMeta struct {
	Doc  string
	User string
	Sig  sig.Signature
	// SourceSig and the two chain fingerprints are the entry's content
	// key at demotion time; promotion recomputes the current key and
	// refuses the entry on any mismatch.
	SourceSig   sig.Signature
	UniversalFP sig.Signature
	PersonalFP  sig.Signature
	// Gen is the document's invalidation generation when the entry was
	// demoted; entries older than the last persisted epoch are dropped.
	Gen uint64
	// Cost is the replacement cost at demotion time, re-fed to the
	// policy on promotion.
	Cost time.Duration
	// HeadSig and HeadLen, zero for a whole entry, claim that the blob's
	// first HeadLen bytes are the blob signed HeadSig (the cut every
	// user's view of the document begins with), so a promote can keep
	// that head once. A claim is a hint: the promote proves it against
	// the bytes before it relies on it.
	HeadSig sig.Signature
	HeadLen int
}

// IntermediateMeta describes a durable universal intermediate. These
// are structurally valid by construction — (source signature, chain
// fingerprint) is the whole key — so no epoch applies. A cut carries
// no cost: a promote installs it at the cost of the read that asks.
type IntermediateMeta struct {
	SourceSig   sig.Signature
	Fingerprint sig.Signature
	Sig         sig.Signature
}

// Recovery reports what opening a store directory found, for logs and
// the daemons' /status endpoints.
type Recovery struct {
	Blobs         int   // valid blob records indexed
	Entries       int   // entries surviving replay (latest-wins, epoch- and blob-filtered)
	Intermediates int   // intermediates surviving replay
	EpochDocs     int   // documents with a persisted invalidation epoch
	DroppedStale  int   // entries dropped because an epoch superseded them
	DroppedNoBlob int   // entries/intermediates dropped for want of their blob
	LostBytes     int64 // torn/corrupt segment tails not replayed
}

// Stats is a point-in-time snapshot for observability.
type Stats struct {
	Blobs         int
	BlobBytes     int64
	Segments      int
	Entries       int
	Intermediates int
	EpochDocs     int
}

// Options tunes a Store; the zero value is ready to use.
type Options struct {
	// segmentMaxBytes rolls the active segment once it exceeds
	// this size; 0 means DefaultSegmentMaxBytes. Only this package's
	// tests set it, to roll segments without writing 64 MiB.
	segmentMaxBytes int64
}

// Store is a durable content-addressed tier. All methods are safe for
// concurrent use; callers must not hold cache locks across them (they
// do file I/O).
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options

	refs      map[sig.Signature]blobRef
	files     map[int]*os.File
	active    int
	tail      tail // of the active segment, on disk; its failure stops every put
	blobBytes int64

	// The batch not yet written: encoded records, blobs and the
	// metadata naming them in append order, that belong at the active
	// segment's tail. timer is armed while a batch waits out its
	// window.
	buf   []byte
	timer *time.Timer
	armed bool

	entries map[string]EntryMeta          // doc \x00 user → latest meta
	inters  map[interKey]IntermediateMeta // (src, fp) → latest meta
	epochs  map[string]uint64             // doc → highest persisted generation

	closed bool
}

type interKey struct {
	src sig.Signature
	fp  sig.Signature
}

func entryKey(doc, user string) string { return doc + "\x00" + user }

// Open opens (or creates) a store rooted at dir, rebuilding the blob
// index and the metadata maps by one scan of its segments. A corrupt
// tail is cut away and reported in Recovery, never returned as an
// error: corruption is a recoverable state here, by design. Other files
// in dir are not read.
func Open(dir string, opts Options) (*Store, Recovery, error) {
	var rec Recovery
	if opts.segmentMaxBytes <= 0 {
		opts.segmentMaxBytes = DefaultSegmentMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, err
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		refs:    make(map[sig.Signature]blobRef),
		files:   make(map[int]*os.File),
		entries: make(map[string]EntryMeta),
		inters:  make(map[interKey]IntermediateMeta),
		epochs:  make(map[string]uint64),
	}
	lost, err := s.openSegments()
	if err != nil {
		s.closeFiles()
		return nil, rec, err
	}
	// Epochs beat entries wherever they sit in the stream, and a
	// metadata record whose blob was lost is useless.
	for k, e := range s.entries {
		if e.Gen < s.epochs[e.Doc] {
			delete(s.entries, k)
			rec.DroppedStale++
			continue
		}
		if _, ok := s.refs[e.Sig]; !ok {
			delete(s.entries, k)
			rec.DroppedNoBlob++
		}
	}
	for k, im := range s.inters {
		if _, ok := s.refs[im.Sig]; !ok {
			delete(s.inters, k)
			rec.DroppedNoBlob++
		}
	}
	for _, ref := range s.refs {
		s.blobBytes += ref.size
	}
	rec.Blobs = len(s.refs)
	rec.Entries = len(s.entries)
	rec.Intermediates = len(s.inters)
	rec.EpochDocs = len(s.epochs)
	rec.LostBytes = lost
	return s, rec, nil
}

// writableLocked is the error a put must return instead of queueing.
func (s *Store) writableLocked() error {
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.tail.failed
}

// appendLocked queues one record at the active segment's tail, rolling
// to a new segment first when the record would overflow this one, and
// returns where its payload will be.
func (s *Store) appendLocked(magic [4]byte, sg sig.Signature, payload []byte) (blobRef, error) {
	end := s.tail.end + int64(len(s.buf))
	if end > 0 && end+int64(recordHeaderSize+len(payload)) > s.opts.segmentMaxBytes {
		if err := s.rollLocked(); err != nil {
			return blobRef{}, err
		}
		end = 0
	}
	s.buf = appendRecord(s.buf, magic, sg, payload)
	return blobRef{seg: s.active, offset: end + recordHeaderSize, size: int64(len(payload))}, nil
}

// appendMetaLocked queues one metadata record, signed like a blob.
func (s *Store) appendMetaLocked(payload []byte) error {
	if err := s.writableLocked(); err != nil {
		return err
	}
	_, err := s.appendLocked(metaMagic, sig.Of(payload), payload)
	return err
}

// queuedLocked is called after the batch grew: it writes the batch out
// if it is large, and otherwise makes sure the timer will.
func (s *Store) queuedLocked() error {
	if len(s.buf) >= flushBytes {
		return s.flushLocked()
	}
	if !s.armed {
		s.armed = true
		if s.timer == nil {
			s.timer = time.AfterFunc(flushWindow, s.flushDue)
		} else {
			s.timer.Reset(flushWindow)
		}
	}
	return nil
}

// flushDue is the timer's callback. A failure has no caller to go to;
// it stays in the tail and the next put returns it.
func (s *Store) flushDue() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = false
	if !s.closed {
		_ = s.flushLocked()
	}
}

// flushLocked writes the batch in one WriteAt. Every metadata record
// follows the blob it names, so a torn write keeps no entry or
// intermediate without its blob. A failure un-indexes every blob that
// was not written, with the entries and intermediates naming one, and
// fails this and every later put.
func (s *Store) flushLocked() error {
	err := s.tail.write(s.files[s.active], s.buf)
	if cap(s.buf) > 2*flushBytes {
		s.buf = nil // one huge record must not pin its size forever
	}
	s.buf = s.buf[:0]
	if err == nil {
		return nil
	}
	for sg, ref := range s.refs {
		if ref.seg == s.active && ref.offset >= s.tail.end {
			delete(s.refs, sg)
			s.blobBytes -= ref.size
		}
	}
	for k, e := range s.entries {
		if _, ok := s.refs[e.Sig]; !ok {
			delete(s.entries, k)
		}
	}
	for k, im := range s.inters {
		if _, ok := s.refs[im.Sig]; !ok {
			delete(s.inters, k)
		}
	}
	return err
}

// PutBlob stores payload under its content signature, deduplicating
// against blobs already held, and returns that signature — computed
// here, outside the lock, so a caller that interns payload under it
// hashes nothing itself. The signature is payload's even when the put
// fails.
func (s *Store) PutBlob(payload []byte) (sig.Signature, error) {
	sg := sig.Of(payload)
	return sg, s.appendBlob(sg, payload)
}

// PutSigned is PutBlob for a caller that has already signed body,
// which it may hold in parts. A blob the store holds is answered from
// the index alone, and its parts are never joined. For a new one the
// store still hashes what it writes — outside its lock — and refuses a
// signature the bytes do not produce (see appendRecord).
func (s *Store) PutSigned(sg sig.Signature, body stream.Body) error {
	s.mu.Lock()
	_, held := s.refs[sg]
	err := s.writableLocked()
	s.mu.Unlock()
	if err != nil || held {
		return err
	}
	payload := body.Bytes()
	if sig.Of(payload) != sg {
		return fmt.Errorf("store: payload does not hash to its signature %s", sg)
	}
	return s.appendBlob(sg, payload)
}

// appendBlob queues payload's record, trusting sg.
func (s *Store) appendBlob(sg sig.Signature, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	if _, ok := s.refs[sg]; ok {
		return nil // content-addressed: same bytes, already held
	}
	ref, err := s.appendLocked(segMagic, sg, payload)
	if err != nil {
		return err
	}
	s.refs[sg] = ref
	s.blobBytes += ref.size
	return s.queuedLocked()
}

// rollLocked seals the active segment, writing out what is queued for
// it, and starts the next one.
func (s *Store) rollLocked() error {
	if err := s.flushLocked(); err != nil {
		return err
	}
	next := s.active + 1
	f, err := os.OpenFile(filepath.Join(s.dir, segmentName(next)), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	s.files[next] = f
	s.active = next
	s.tail = tail{}
	return nil
}

// GetBlob returns the payload stored under sg, verifying the content
// signature end to end before serving it. A blob that fails
// verification is dropped from the index and reported as absent —
// the store never serves bytes it cannot prove are the ones asked for.
func (s *Store) GetBlob(sg sig.Signature) ([]byte, bool) {
	payload, _, ok := s.GetBlobHead(sg, 0)
	return payload, ok
}

// GetBlobHead is GetBlob that also returns the signature of the
// payload's first n bytes, taken in the same pass as the whole
// payload's proof; it is zero unless 0 < n < the payload's length.
func (s *Store) GetBlobHead(sg sig.Signature, n int) ([]byte, sig.Signature, bool) {
	ref, f := s.locate(sg)
	if f == nil {
		return nil, sig.Zero, false
	}
	payload := make([]byte, ref.size)
	if _, err := f.ReadAt(payload, ref.offset); err == nil {
		var whole, head sig.Signature
		if n > 0 && n < len(payload) {
			whole, head = sig.OfParts(payload[:n], payload[n:])
		} else {
			whole = sig.Of(payload)
		}
		if whole == sg {
			return payload, head, true
		}
	}
	s.mu.Lock()
	if !s.closed && s.refs[sg] == ref {
		delete(s.refs, sg)
	}
	s.mu.Unlock()
	return nil, sig.Zero, false
}

// GetBlobAfter returns the bytes of the blob under sg that follow head,
// a shorter run of bytes the caller holds, if head and those bytes
// hash to sg: a caller that holds a blob's leading bytes reads and
// allocates only the rest, and one hash proves the whole. A refusal
// says nothing against the blob (head may simply not be its start), so
// it stays indexed; GetBlob is the read that tells.
func (s *Store) GetBlobAfter(sg sig.Signature, head []byte) ([]byte, bool) {
	ref, f := s.locate(sg)
	if f == nil || int64(len(head)) >= ref.size {
		return nil, false
	}
	tail := make([]byte, ref.size-int64(len(head)))
	if _, err := f.ReadAt(tail, ref.offset+int64(len(head))); err != nil {
		return nil, false
	}
	if whole, _ := sig.OfParts(head, tail); whole != sg {
		return nil, false
	}
	return tail, true
}

// locate returns where the blob under sg lies, or a nil file when the
// store holds no such blob or is closed. A blob still queued in the
// batch is written out first. The caller reads and hashes outside the
// lock: segments are append-only, so the bytes behind a ref never
// change.
func (s *Store) locate(sg sig.Signature) (blobRef, *os.File) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.refs[sg]
	if s.closed || !ok || ref.seg == s.active && ref.offset >= s.tail.end && s.flushLocked() != nil {
		return ref, nil
	}
	return ref, s.files[ref.seg]
}

// PutEntry records that a cache entry's bytes live in the store. The
// blob must already have been put.
func (s *Store) PutEntry(e EntryMeta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.refs[e.Sig]; !ok {
		return fmt.Errorf("store: entry %s/%s references unknown blob %s", e.Doc, e.User, e.Sig)
	}
	if err := s.appendMetaLocked(appendMeta(nil, metaEntry, entryFields(&e))); err != nil {
		return err
	}
	s.entries[entryKey(e.Doc, e.User)] = e
	return s.queuedLocked()
}

// GetEntry returns the newest durable entry for (doc, user), if one
// exists, its blob is present, and no persisted epoch supersedes it.
func (s *Store) GetEntry(doc, user string) (EntryMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[entryKey(doc, user)]
	if !ok || e.Gen < s.epochs[doc] {
		return EntryMeta{}, false
	}
	if _, ok := s.refs[e.Sig]; !ok {
		return EntryMeta{}, false
	}
	return e, true
}

// PutIntermediate records a durable universal intermediate.
func (s *Store) PutIntermediate(im IntermediateMeta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.refs[im.Sig]; !ok {
		return fmt.Errorf("store: intermediate %s references unknown blob %s", im.Fingerprint, im.Sig)
	}
	if err := s.appendMetaLocked(appendMeta(nil, metaInter, interFields(&im))); err != nil {
		return err
	}
	s.inters[interKey{im.SourceSig, im.Fingerprint}] = im
	return s.queuedLocked()
}

// GetIntermediate returns the durable intermediate keyed by (source
// signature, chain fingerprint), if present with its blob.
func (s *Store) GetIntermediate(src, fp sig.Signature) (IntermediateMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	im, ok := s.inters[interKey{src, fp}]
	if !ok {
		return IntermediateMeta{}, false
	}
	if _, ok := s.refs[im.Sig]; !ok {
		return IntermediateMeta{}, false
	}
	return im, true
}

// AppendEpoch durably records that doc reached invalidation generation
// gen: after a restart, any durable entry for doc with an older
// generation will be refused. Called on every invalidation so that
// invalidations arriving while entries sit on disk survive a crash —
// which is why, unlike a put, it returns only once its record and
// everything queued before it are written.
func (s *Store) AppendEpoch(doc string, gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendMetaLocked(appendMeta(nil, metaEpoch, epochFields(&doc, &gen))); err != nil {
		return err
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	if gen > s.epochs[doc] {
		s.epochs[doc] = gen
	}
	return nil
}

// Epochs returns a copy of the persisted invalidation epochs, used by
// the cache on boot to seed its generation counters.
func (s *Store) Epochs() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.epochs))
	for d, g := range s.epochs {
		out[d] = g
	}
	return out
}

// Stats snapshots the store for observability.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Blobs:         len(s.refs),
		BlobBytes:     s.blobBytes,
		Segments:      len(s.files),
		Entries:       len(s.entries),
		Intermediates: len(s.inters),
		EpochDocs:     len(s.epochs),
	}
}

func (s *Store) closeFiles() {
	for _, f := range s.files {
		f.Close()
	}
}

// Close writes out what is queued, then syncs and releases the store's
// files. The store is unusable afterwards; reopen with Open.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	first := s.flushLocked()
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	for _, f := range s.files {
		if err := f.Sync(); err != nil && first == nil {
			first = err
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
