package store

import (
	"bytes"
	"crypto/md5"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"placeless/internal/sig"
)

// TestOpenLeavesCleanSegmentUntouched: Open truncates the active
// segment only when its scan found a torn tail. A clean segment keeps
// its modification time; a torn one is still cut back to its last
// whole record.
func TestOpenLeavesCleanSegmentUntouched(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	a, err := s.PutBlob([]byte("a whole record"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	past := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	clean, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	s2, rec := openT(t, dir)
	if rec.LostBytes != 0 {
		t.Fatalf("a clean segment lost %d bytes", rec.LostBytes)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().Equal(clean.ModTime()) || info.Size() != clean.Size() {
		t.Fatalf("Open touched a clean segment: mtime %v size %d, was %v size %d", info.ModTime(), info.Size(), clean.ModTime(), clean.Size())
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A torn tail: half a header after the whole record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s3, rec := openT(t, dir)
	if rec.LostBytes != int64(len(segMagic)) {
		t.Fatalf("lost %d bytes, want the %d-byte torn tail", rec.LostBytes, len(segMagic))
	}
	if info, err = os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if info.Size() != clean.Size() {
		t.Fatalf("torn segment is %d bytes after Open, want %d", info.Size(), clean.Size())
	}
	if _, ok := s3.GetBlob(a); !ok {
		t.Fatal("the whole record before the torn tail is gone")
	}
}

// writeParentLayout lays dir out as a store written while metadata
// went to a JSON-lines meta.log beside the segments: one segment record
// of payload under signature s, and meta lines for an entry and an
// intermediate naming s and an epoch for the entry's document. It
// returns the meta log's bytes.
func writeParentLayout(t *testing.T, dir string, s sig.Signature, payload []byte, e EntryMeta, im IntermediateMeta, epoch uint64) []byte {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), appendRecord(nil, segMagic, s, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	e.Sig, im.Sig = s, s
	var meta []byte
	for _, line := range jsonEraPayloads(t, e, im, epoch) {
		meta = append(append(meta, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.log"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	return meta
}

// jsonEraPayloads returns what a store wrote, while its metadata was
// JSON, for e, im and an epoch of e's document: one object each, with
// signatures in hex.
func jsonEraPayloads(t *testing.T, e EntryMeta, im IntermediateMeta, epoch uint64) [][]byte {
	t.Helper()
	var out [][]byte
	for _, m := range []map[string]any{
		{"t": "entry", "e": map[string]any{"doc": e.Doc, "user": e.User, "sig": e.Sig.String(), "src": e.SourceSig.String(), "ufp": e.UniversalFP.String(), "pfp": e.PersonalFP.String(), "gen": e.Gen, "cost": e.Cost}},
		{"t": "inter", "i": map[string]any{"src": im.SourceSig.String(), "fp": im.Fingerprint.String(), "sig": im.Sig.String(), "cost": int64(time.Second)}},
		{"t": "epoch", "doc": e.Doc, "gen": epoch},
	} {
		js, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, js)
	}
	return out
}

// checkMetaLogInert fails unless dir's leftover meta.log still holds
// exactly want, and the store replayed none of it.
func checkMetaLogInert(t *testing.T, dir string, s *Store, want []byte, src, fp sig.Signature) {
	t.Helper()
	if got, err := os.ReadFile(filepath.Join(dir, "meta.log")); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the leftover meta.log changed: %v", err)
	}
	if _, ok := s.GetEntry("d", "u"); ok {
		t.Fatal("replayed an entry from the leftover meta.log")
	}
	if _, ok := s.GetIntermediate(src, fp); ok {
		t.Fatal("replayed an intermediate from the leftover meta.log")
	}
	if ep := s.Epochs(); len(ep) != 0 {
		t.Fatalf("replayed epochs %v from the leftover meta.log", ep)
	}
}

// TestOpenMD5StoreRecoversEmpty is the upgrade path from a store
// written while signatures were MD5 and metadata went to meta.log: it
// opens without error and with nothing indexed — its record fails the
// signature check and counts as lost, and the meta log is not read —
// and the store is writable where the old record was.
func TestOpenMD5StoreRecoversEmpty(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("bytes an MD5-era store holds")
	src, fp := sig.Of([]byte("source")), sig.Of([]byte("chain"))
	old := sig.Signature(md5.Sum(payload))
	meta := writeParentLayout(t, dir, old, payload,
		EntryMeta{Doc: "d", User: "u", SourceSig: src, Gen: 7},
		IntermediateMeta{SourceSig: src, Fingerprint: fp}, 7)

	s, rec := openT(t, dir)
	if (rec != Recovery{LostBytes: int64(recordHeaderSize + len(payload))}) {
		t.Fatalf("recovery = %+v, want nothing but the whole %d-byte record lost", rec, recordHeaderSize+len(payload))
	}
	if _, ok := s.GetBlob(old); ok {
		t.Fatal("served an MD5-signed record")
	}
	checkMetaLogInert(t, dir, s, meta, src, fp)
	sg, err := s.PutBlob(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.GetBlob(sg); !ok || !bytes.Equal(got, payload) {
		t.Fatal("a put after the upgrade is not readable")
	}
}

// TestOpenIgnoresMetaLog is the upgrade path from a store written
// while metadata went to meta.log, signatures already sig.Of: its blobs
// are indexed, and no entry, intermediate or epoch is, so no old
// generation can be taken for a new one. The leftover log is left as it
// was, and a close writes nothing beside the segments.
func TestOpenIgnoresMetaLog(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("bytes a meta.log-era store holds")
	src, fp := sig.Of([]byte("source")), sig.Of([]byte("chain"))
	meta := writeParentLayout(t, dir, sig.Of(payload), payload,
		EntryMeta{Doc: "d", User: "u", SourceSig: src, Gen: 7},
		IntermediateMeta{SourceSig: src, Fingerprint: fp}, 7)

	s, rec := openT(t, dir)
	if (rec != Recovery{Blobs: 1}) {
		t.Fatalf("recovery = %+v, want the one blob and nothing else", rec)
	}
	if got, ok := s.GetBlob(sig.Of(payload)); !ok || !bytes.Equal(got, payload) {
		t.Fatal("the blob of a meta.log-era store is not served")
	}
	checkMetaLogInert(t, dir, s, meta, src, fp)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "meta.log")); err != nil || !bytes.Equal(got, meta) {
		t.Fatalf("Close touched the leftover meta.log: %v", err)
	}
}

// TestStoreDirHoldsOnlySegments: after an open, puts of every kind, an
// epoch and a close, the directory holds segment files and nothing
// else, and they replay everything.
func TestStoreDirHoldsOnlySegments(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	sg, err := s.PutBlob([]byte("the one blob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(EntryMeta{Doc: "d", User: "u", Sig: sg, Gen: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutIntermediate(IntermediateMeta{SourceSig: sg, Fingerprint: sg, Sig: sg}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEpoch("other", 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if ok, _ := filepath.Match("seg-*.plseg", e.Name()); !ok || e.IsDir() {
			t.Fatalf("the store directory holds %q beside its segments", e.Name())
		}
	}
	if _, rec := openT(t, dir); (rec != Recovery{Blobs: 1, Entries: 1, Intermediates: 1, EpochDocs: 1}) {
		t.Fatalf("recovery = %+v, want everything back from the segments", rec)
	}
}
