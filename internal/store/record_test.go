package store

import (
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
