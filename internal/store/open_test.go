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
	if rec.LostBlobBytes != 0 {
		t.Fatalf("a clean segment lost %d bytes", rec.LostBlobBytes)
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
	if rec.LostBlobBytes != int64(len(segMagic)) {
		t.Fatalf("lost %d bytes, want the %d-byte torn tail", rec.LostBlobBytes, len(segMagic))
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

// writeMD5Store lays dir out as a store written while signatures were
// MD5: one segment record of payload under its MD5 signature, and meta
// lines for an entry and an intermediate naming that signature and an
// epoch for the entry's document. It returns the MD5 signature.
func writeMD5Store(t *testing.T, dir string, payload []byte, e EntryMeta, im IntermediateMeta, epoch uint64) sig.Signature {
	t.Helper()
	old := sig.Signature(md5.Sum(payload))
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), appendRecord(nil, old, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	e.Sig, im.Sig = old, old
	var meta bytes.Buffer
	enc := json.NewEncoder(&meta)
	for _, m := range []metaRecord{
		{T: "entry", Entry: &e},
		{T: "inter", Inter: &im},
		{T: "epoch", Doc: e.Doc, Gen: epoch},
	} {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, metaLogName), meta.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return old
}

// TestOpenMD5StoreRecoversEmpty is the upgrade path: a store written
// while signatures were MD5 opens without error and with no blob
// indexed — its record fails the signature check and counts as lost —
// so the entry and intermediate naming it are dropped, while the epoch
// survives.
func TestOpenMD5StoreRecoversEmpty(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("bytes an MD5-era store holds")
	src, fp := sig.Of([]byte("source")), sig.Of([]byte("chain"))
	old := writeMD5Store(t, dir, payload,
		EntryMeta{Doc: "d", User: "u", SourceSig: src, Gen: 7},
		IntermediateMeta{SourceSig: src, Fingerprint: fp}, 7)

	s, rec := openT(t, dir)
	if rec.Blobs != 0 || rec.Entries != 0 || rec.Intermediates != 0 {
		t.Fatalf("recovery = %+v, want no blobs, entries or intermediates", rec)
	}
	if want := int64(recordHeaderSize + len(payload)); rec.LostBlobBytes != want {
		t.Fatalf("LostBlobBytes = %d, want the whole %d-byte record", rec.LostBlobBytes, want)
	}
	if rec.DroppedNoBlob != 2 || rec.EpochDocs != 1 {
		t.Fatalf("recovery = %+v, want the entry and intermediate dropped for want of a blob and one epoch kept", rec)
	}
	if _, ok := s.GetBlob(old); ok {
		t.Fatal("served an MD5-signed record")
	}
	if _, ok := s.GetEntry("d", "u"); ok {
		t.Fatal("kept an entry naming an MD5-signed record")
	}
	if _, ok := s.GetIntermediate(src, fp); ok {
		t.Fatal("kept an intermediate naming an MD5-signed record")
	}
	if g := s.Epochs()["d"]; g != 7 {
		t.Fatalf("epoch = %d, want 7", g)
	}
	// The store is writable where the old record was.
	sg, err := s.PutBlob(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.GetBlob(sg); !ok || !bytes.Equal(got, payload) {
		t.Fatal("a put after the upgrade is not readable")
	}
}
