package store

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"placeless/internal/sig"
)

// TestSegmentRefusesJournalRecord: a configuration journal's record is
// no kind a segment holds, so a segment scan stops at one as at any
// corrupt record — the blob before it is served, it and everything
// after it are lost and cut away.
func TestSegmentRefusesJournalRecord(t *testing.T) {
	dir := t.TempDir()
	before, entry, after := []byte("blob before"), []byte(`{"op":"create","doc":"d"}`), []byte("blob after")
	img := appendRecord(nil, segMagic, sig.Of(before), before)
	kept := len(img)
	img = appendRecord(img, logMagic, sig.Of(entry), entry)
	img = appendRecord(img, segMagic, sig.Of(after), after)
	path := filepath.Join(dir, segmentName(1))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec := openT(t, dir)
	if rec.Blobs != 1 || rec.LostBytes != int64(len(img)-kept) {
		t.Fatalf("recovery = %+v, want 1 blob and the %d bytes from the journal record on lost", rec, len(img)-kept)
	}
	if _, ok := s.GetBlob(sig.Of(before)); !ok {
		t.Fatal("the blob before the journal record is not served")
	}
	if _, ok := s.GetBlob(sig.Of(after)); ok {
		t.Fatal("a blob after the journal record is served")
	}
	if info, err := os.Stat(path); err != nil || info.Size() != int64(kept) {
		t.Fatalf("segment after open: %v, %v; want %d bytes", info, err, kept)
	}
}

// TestRecordCRCIsTheChecksumOfSignatureAndPayload pins the record
// checksum to CRC-32 (IEEE) of signature ‖ payload, the format every
// segment and journal holds, computed without an allocation.
func TestRecordCRCIsTheChecksumOfSignatureAndPayload(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), []byte("a record's payload, a few dozen bytes long")} {
		s := sig.Of(payload)
		if got, want := recordCRC(s, payload), crc32.ChecksumIEEE(append(s[:], payload...)); got != want {
			t.Errorf("recordCRC(%q) = %08x, want %08x", payload, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { recordCRC(s, payload) }); n != 0 {
			t.Errorf("recordCRC(%q) allocates %v times", payload, n)
		}
	}
}
