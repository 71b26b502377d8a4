package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"placeless/internal/sig"
)

func openT(t *testing.T, dir string) (*Store, Recovery) {
	t.Helper()
	s, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, rec
}

func TestBlobRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	payloads := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 4096),
		[]byte("hello"), // duplicate: must dedup
	}
	sigs := make([]sig.Signature, len(payloads))
	for i, p := range payloads {
		sg, err := s.PutBlob(p)
		if err != nil {
			t.Fatal(err)
		}
		if sg != sig.Of(p) {
			t.Fatalf("PutBlob returned %s, want content signature %s", sg, sig.Of(p))
		}
		sigs[i] = sg
	}
	if st := s.Stats(); st.Blobs != 3 {
		t.Fatalf("after dedup, %d blobs indexed, want 3", st.Blobs)
	}
	for i, p := range payloads {
		got, ok := s.GetBlob(sigs[i])
		if !ok {
			t.Fatalf("blob %d missing", i)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("blob %d: got %q, want %q", i, got, p)
		}
	}
	if _, ok := s.GetBlob(sig.Of([]byte("never stored"))); ok {
		t.Fatal("GetBlob returned a blob that was never stored")
	}
}

// TestBlobReadsAroundAHead: GetBlobHead signs the payload's first n
// bytes in the pass that proves the whole, and only for 0 < n < its
// length; GetBlobAfter serves the bytes after a head the caller holds
// when head and they are the blob, and refuses any other head, or one
// as long as the blob, without dropping the blob.
func TestBlobReadsAroundAHead(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	head, tail := []byte("the universal output"), []byte("\n-- retrieved for amy --\n")
	blob := append(append([]byte(nil), head...), tail...)
	sg, err := s.PutBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, hs, ok := s.GetBlobHead(sg, len(head)); !ok || !bytes.Equal(got, blob) || hs != sig.Of(head) {
		t.Fatalf("GetBlobHead(%d) = %q, %v, %v; want the blob and its head's signature", len(head), got, hs, ok)
	}
	for _, n := range []int{0, -1, len(blob), len(blob) + 1} {
		if got, hs, ok := s.GetBlobHead(sg, n); !ok || !bytes.Equal(got, blob) || !hs.IsZero() {
			t.Fatalf("GetBlobHead(%d) = %q, %v, %v; want the blob and no head signature", n, got, hs, ok)
		}
	}
	if got, ok := s.GetBlobAfter(sg, head); !ok || !bytes.Equal(got, tail) {
		t.Fatalf("GetBlobAfter(its head) = %q, %v; want the tail", got, ok)
	}
	for _, h := range [][]byte{[]byte("not the universal output"), []byte("The universal output"), blob, append(blob, 'x')} {
		if got, ok := s.GetBlobAfter(sg, h); ok {
			t.Fatalf("GetBlobAfter(%q) = %q: served bytes after a head the blob does not begin with", h, got)
		}
	}
	if got, ok := s.GetBlob(sg); !ok || !bytes.Equal(got, blob) {
		t.Fatal("a refused GetBlobAfter cost the blob")
	}
	if _, ok := s.GetBlobAfter(sig.Of([]byte("never stored")), head); ok {
		t.Fatal("GetBlobAfter served a blob that was never stored")
	}
}

func TestReopenRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	var sigs []sig.Signature
	for i := 0; i < 50; i++ {
		sg, err := s.PutBlob([]byte(fmt.Sprintf("payload-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sg)
	}
	if err := s.PutEntry(EntryMeta{Doc: "d1", User: "u1", Sig: sigs[0], SourceSig: sigs[1], Gen: 3, Cost: 7}); err != nil {
		t.Fatal(err)
	}
	fpA := sig.Of([]byte("chain-a"))
	if err := s.PutIntermediate(IntermediateMeta{SourceSig: sigs[1], Fingerprint: fpA, Sig: sigs[2]}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEpoch("d2", 11); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := openT(t, dir)
	if rec.Blobs != 50 || rec.Entries != 1 || rec.Intermediates != 1 || rec.EpochDocs != 1 {
		t.Fatalf("recovery = %+v, want 50 blobs / 1 entry / 1 intermediate / 1 epoch doc", rec)
	}
	if rec.LostBytes != 0 {
		t.Fatalf("clean shutdown lost bytes: %+v", rec)
	}
	for i, sg := range sigs {
		got, ok := s2.GetBlob(sg)
		if !ok || !bytes.Equal(got, []byte(fmt.Sprintf("payload-%03d", i))) {
			t.Fatalf("blob %d not recovered intact", i)
		}
	}
	e, ok := s2.GetEntry("d1", "u1")
	if !ok || e.Sig != sigs[0] || e.Gen != 3 || e.Cost != 7 {
		t.Fatalf("entry not recovered: %+v ok=%v", e, ok)
	}
	im, ok := s2.GetIntermediate(sigs[1], fpA)
	if !ok || im.Sig != sigs[2] {
		t.Fatalf("intermediate not recovered: %+v ok=%v", im, ok)
	}
	if g := s2.Epochs()["d2"]; g != 11 {
		t.Fatalf("epoch not recovered: got %d, want 11", g)
	}
}

// TestTruncatedTailRecovery cuts bytes off the active segment at every
// possible boundary class and re-opens: the scan must recover every
// record before the cut and never serve the cut one.
func TestTruncatedTailRecovery(t *testing.T) {
	for _, cut := range []int64{1, recordHeaderSize - 1, recordHeaderSize, recordHeaderSize + 3} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openT(t, dir)
			a, err := s.PutBlob([]byte("first record, must survive"))
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.PutBlob([]byte("second record, gets torn"))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, segmentName(1))
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()-cut); err != nil {
				t.Fatal(err)
			}

			s2, rec := openT(t, dir)
			if rec.Blobs != 1 {
				t.Fatalf("recovered %d blobs, want 1", rec.Blobs)
			}
			if rec.LostBytes == 0 {
				t.Fatal("recovery did not report the lost tail")
			}
			if _, ok := s2.GetBlob(a); !ok {
				t.Fatal("intact first record not served after tail truncation")
			}
			if _, ok := s2.GetBlob(b); ok {
				t.Fatal("torn record served")
			}
			// The next append must land cleanly after the repair.
			c, err := s2.PutBlob([]byte("post-recovery append"))
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := s2.GetBlob(c); !ok || !bytes.Equal(got, []byte("post-recovery append")) {
				t.Fatal("append after tail repair not readable")
			}
		})
	}
}

// TestFlippedChecksumByte corrupts a single byte of the first record's
// CRC field on disk: the record must be rejected at scan, and —
// because a mid-segment corruption makes everything after it
// untrustworthy — the following record goes with it. Never a panic,
// never bad bytes.
func TestFlippedChecksumByte(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	a, err := s.PutBlob([]byte("record with a soon-to-be-bad checksum"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.PutBlob([]byte("record after the corruption"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[8+sig.Size] ^= 0xFF // first byte of record 1's CRC
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := openT(t, dir)
	if rec.Blobs != 0 {
		t.Fatalf("recovered %d blobs past a corrupt checksum, want 0", rec.Blobs)
	}
	if _, ok := s2.GetBlob(a); ok {
		t.Fatal("served the record whose checksum was flipped")
	}
	if _, ok := s2.GetBlob(b); ok {
		t.Fatal("served a record that followed corruption")
	}
}

// TestFlippedPayloadByte flips one payload byte: CRC and signature must
// both be capable of catching it (the scan rejects it before indexing).
func TestFlippedPayloadByte(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	a, err := s.PutBlob([]byte("payload to be silently rotted"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[recordHeaderSize] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, dir)
	if rec.Blobs != 0 {
		t.Fatalf("indexed a rotted payload: %+v", rec)
	}
	if _, ok := s2.GetBlob(a); ok {
		t.Fatal("served rotted bytes")
	}
}

// TestSegmentRoll forces tiny segments and checks blobs spread across
// several files and all recover on reopen.
func TestSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{segmentMaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var sigs []sig.Signature
	for i := 0; i < 20; i++ {
		sg, err := s.PutBlob(bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sg)
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("expected segment roll, still %d segment(s)", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, dir)
	if rec.Blobs != 20 {
		t.Fatalf("recovered %d blobs across segments, want 20", rec.Blobs)
	}
	for i, sg := range sigs {
		got, ok := s2.GetBlob(sg)
		if !ok || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 100)) {
			t.Fatalf("blob %d lost across the roll", i)
		}
	}
}

// TestEpochFiltersEntries pins the invalidated-while-down discipline:
// an entry demoted at generation G must stop being served the moment
// a later epoch is persisted, both live and across a reopen — and the
// filtering is order-independent (epoch line before or after entry).
func TestEpochFiltersEntries(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	sg, err := s.PutBlob([]byte("stale-capable content"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(EntryMeta{Doc: "d", User: "u", Sig: sg, Gen: 5}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetEntry("d", "u"); !ok {
		t.Fatal("entry missing before epoch")
	}
	if err := s.AppendEpoch("d", 6); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetEntry("d", "u"); ok {
		t.Fatal("entry served live past a newer epoch")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, dir)
	if rec.DroppedStale != 1 {
		t.Fatalf("replay dropped %d stale entries, want 1", rec.DroppedStale)
	}
	if _, ok := s2.GetEntry("d", "u"); ok {
		t.Fatal("entry served after reopen past a newer epoch")
	}
	// Same generation is not stale: epoch G refuses only Gen < G —
	// an entry installed at the bumped generation is post-invalidation.
	if err := s2.PutEntry(EntryMeta{Doc: "d", User: "u", Sig: sg, Gen: 6}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.GetEntry("d", "u"); !ok {
		t.Fatal("entry at the epoch generation refused")
	}
}

// TestEntryWithoutBlobDropped covers the missing-blob filter: a
// metadata record whose blob was in a sealed segment's lost tail must
// not survive replay. The segments are sized so the two blobs fill the
// first and every metadata record rolls to a segment of its own.
func TestEntryWithoutBlobDropped(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, Options{segmentMaxBytes: 2 * (recordHeaderSize + 9)})
	if err != nil {
		t.Fatal(err)
	}
	keep, err := s.PutBlob([]byte("keep-blob"))
	if err != nil {
		t.Fatal(err)
	}
	lost, err := s.PutBlob([]byte("lost-blob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(EntryMeta{Doc: "keep", User: "u", Sig: keep, Gen: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(EntryMeta{Doc: "lost", User: "u", Sig: lost, Gen: 1}); err != nil {
		t.Fatal(err)
	}
	fpF := sig.Of([]byte("chain-f"))
	if err := s.PutIntermediate(IntermediateMeta{SourceSig: keep, Fingerprint: fpF, Sig: lost}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 4 {
		t.Fatalf("%d segments, want the blobs in one and each metadata record in its own", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the second blob record off the sealed first segment.
	path := filepath.Join(dir, segmentName(1))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, rec := openT(t, dir)
	if rec.DroppedNoBlob != 2 {
		t.Fatalf("dropped %d blob-less meta records, want 2 (entry + intermediate)", rec.DroppedNoBlob)
	}
	if _, ok := s2.GetEntry("keep", "u"); !ok {
		t.Fatal("entry with intact blob dropped")
	}
	if _, ok := s2.GetEntry("lost", "u"); ok {
		t.Fatal("entry served without its blob")
	}
	if _, ok := s2.GetIntermediate(keep, fpF); ok {
		t.Fatal("intermediate served without its blob")
	}
}

// TestLatestWins: two PutEntry calls for the same (doc, user) — replay
// must keep the later one.
func TestLatestWins(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	old, err := s.PutBlob([]byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := s.PutBlob([]byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(EntryMeta{Doc: "d", User: "u", Sig: old, Gen: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(EntryMeta{Doc: "d", User: "u", Sig: nw, Gen: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, dir)
	if rec.Entries != 1 {
		t.Fatalf("replay kept %d entries for one key, want 1", rec.Entries)
	}
	e, ok := s2.GetEntry("d", "u")
	if !ok || e.Sig != nw {
		t.Fatalf("latest entry did not win: %+v ok=%v", e, ok)
	}
}
