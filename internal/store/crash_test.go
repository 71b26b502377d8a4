package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"placeless/internal/sig"
)

// failingWriter is the interposing writer for crash-consistency
// sweeps: it passes bytes through until the budget is exhausted, then
// fails — simulating a power cut at an exact byte offset in the
// append stream.
type failingWriter struct {
	w      io.Writer
	budget int
}

var errPowerCut = fmt.Errorf("simulated power cut")

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errPowerCut
	}
	if len(p) > f.budget {
		n, _ := f.w.Write(p[:f.budget])
		f.budget -= n
		return n, errPowerCut
	}
	n, err := f.w.Write(p)
	f.budget -= n
	return n, err
}

// batchImage is what one flushed batch left in the segment, written by
// the store itself: queue everything inside one window, let the epoch's
// write-through flush it, Close, read the file back.
type batchImage struct {
	stream []byte
	ends   []int // ends[i] is the offset just past record i
	blob   []bool
	// replayed[i] reports whether a store serves what record i put.
	replayed []func(*Store) bool
}

// batchPayload is blob i of a batch image; the three of them encode to
// 255 bytes of records.
func batchPayload(i int) []byte {
	return []byte(fmt.Sprintf("batch record %d, each a little longer than the last%s", i, bytes.Repeat([]byte{'.'}, 7*i)))
}

// batchUser is the user of a batch image's entries. Its name is longer
// than 127 bytes, so its length prefix is a two-byte uvarint and the
// sweeps cut inside one.
var batchUser = strings.Repeat("a user whose name needs a two-byte length; ", 5)

// makeBatchImage writes three blobs, an entry naming each, an
// intermediate naming the second and an epoch for another document in
// one batch. interleaved puts each entry right after its blob, as the
// cache's demotions do; otherwise the three blobs come first.
func makeBatchImage(t *testing.T, interleaved bool) batchImage {
	t.Helper()
	dir := t.TempDir()
	s := openHeld(t, dir)
	var img batchImage
	var sigs []sig.Signature
	add := func(blob bool, replayed func(*Store) bool) {
		img.blob = append(img.blob, blob)
		img.replayed = append(img.replayed, replayed)
	}
	putBlob := func(i int) {
		p := batchPayload(i)
		sg, err := s.PutBlob(p)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sg)
		add(true, func(s *Store) bool {
			got, ok := s.GetBlob(sg)
			if ok && !bytes.Equal(got, p) {
				t.Fatalf("blob %d corrupted: %q", i, got)
			}
			return ok
		})
	}
	putMeta := func(i int) {
		doc := fmt.Sprintf("d%d", i)
		if err := s.PutEntry(EntryMeta{Doc: doc, User: batchUser, Sig: sigs[i], Gen: 1}); err != nil {
			t.Fatal(err)
		}
		add(false, func(s *Store) bool { _, ok := s.GetEntry(doc, batchUser); return ok })
		if i != 1 {
			return
		}
		src, fp := sigs[0], sig.Of([]byte("chain"))
		if err := s.PutIntermediate(IntermediateMeta{SourceSig: src, Fingerprint: fp, Sig: sigs[1]}); err != nil {
			t.Fatal(err)
		}
		add(false, func(s *Store) bool { _, ok := s.GetIntermediate(src, fp); return ok })
	}
	for i := 0; i < 3; i++ {
		putBlob(i)
		if interleaved {
			putMeta(i)
		}
	}
	for i := 0; !interleaved && i < 3; i++ {
		putMeta(i)
	}
	seg := filepath.Join(dir, segmentName(1))
	if size := fileSize(t, seg); size != 0 {
		t.Fatalf("segment holds %d bytes before any flush; the image would not be one batch", size)
	}
	if err := s.AppendEpoch("gone", 9); err != nil {
		t.Fatal(err)
	}
	add(false, func(s *Store) bool { return s.Epochs()["gone"] == 9 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var err error
	if img.stream, err = os.ReadFile(seg); err != nil {
		t.Fatal(err)
	}
	for off := 0; off+recordHeaderSize <= len(img.stream); {
		off += recordHeaderSize + int(binary.LittleEndian.Uint32(img.stream[off+4:]))
		img.ends = append(img.ends, off)
	}
	if n := len(img.ends); n != len(img.replayed) || img.ends[n-1] != len(img.stream) {
		t.Fatalf("segment has %d records ending at %v of %d bytes, want %d", n, img.ends, len(img.stream), len(img.replayed))
	}
	return img
}

// checkReplayed fails unless exactly records [from, to) of img are served.
func checkReplayed(t *testing.T, s *Store, img batchImage, from, to int) {
	t.Helper()
	for i, replayed := range img.replayed {
		if want := from <= i && i < to; replayed(s) != want {
			t.Fatalf("record %d (blob=%v) replayed=%v, want %v", i, img.blob[i], !want, want)
		}
	}
}

// writeCut writes stream into path through a failingWriter that cuts
// the power after n bytes.
func writeCut(t *testing.T, path string, stream []byte, n int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fw := &failingWriter{w: f, budget: n}
	if _, werr := fw.Write(stream); n < len(stream) && werr == nil {
		t.Fatal("failing writer did not fail")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// whole counts the leading ends that a cut after n bytes left intact.
func whole(ends []int, n int) int {
	k := 0
	for k < len(ends) && ends[k] <= n {
		k++
	}
	return k
}

// TestCrashConsistencySweep is the power-cut-at-every-offset pattern:
// the segment image of one flushed batch that mixes blobs, entries, an
// intermediate and an epoch is cut after N bytes for every N, and for
// each truncation point the store must open without error, replay
// exactly the records that were fully durable — blobs served
// byte-exact —, drop nothing for want of a blob, count the cut-off
// tail as lost, and accept new appends.
func TestCrashConsistencySweep(t *testing.T) {
	img := makeBatchImage(t, true)
	for n := 0; n <= len(img.stream); n++ {
		n := n
		t.Run(fmt.Sprintf("cut=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			writeCut(t, filepath.Join(dir, segmentName(1)), img.stream, n)

			s, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open after cut at %d: %v", n, err)
			}
			defer s.Close()

			want := whole(img.ends, n)
			checkReplayed(t, s, img, 0, want)
			blobs, durable := 0, 0
			if want > 0 {
				durable = img.ends[want-1]
			}
			for _, b := range img.blob[:want] {
				if b {
					blobs++
				}
			}
			if rec.Blobs != blobs || rec.DroppedNoBlob != 0 || rec.LostBytes != int64(n-durable) {
				t.Fatalf("recovery = %+v at cut %d, want %d blobs, none dropped for want of a blob, %d bytes lost", rec, n, blobs, n-durable)
			}

			// The tier must keep working after any cut: append, read
			// back, and survive one more reopen.
			p3 := []byte("post-cut append")
			sig3, err := s.PutBlob(p3)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.PutEntry(EntryMeta{Doc: "post", User: "u", Sig: sig3, Gen: 1}); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.GetBlob(sig3); !ok || !bytes.Equal(got, p3) {
				t.Fatal("append after cut not readable")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, rec2nd, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if rec2nd.LostBytes != 0 {
				t.Fatalf("second open after repair still lost %d bytes", rec2nd.LostBytes)
			}
			if got, ok := s2.GetBlob(sig3); !ok || !bytes.Equal(got, p3) {
				t.Fatal("post-cut append lost across reopen")
			}
			if _, ok := s2.GetEntry("post", "u"); !ok {
				t.Fatal("post-cut entry lost across reopen")
			}
			checkReplayed(t, s2, img, 0, want)
		})
	}
}

// TestCrashConsistencyMetaSweep sweeps the metadata records against
// blobs held in an earlier, sealed segment: the batch image with its
// three blobs first is split at their end into segment 1 and segment 2.
// cut=N tears the metadata in segment 2 after N bytes, the blobs whole:
// a record must be replayed iff it was whole, and the replay must never
// error or resurrect a later one. blobs-cut=N tears the sealed segment
// under whole metadata, as a disk that lost its tail would: an entry or
// intermediate must survive iff its blob did, and the others count as
// dropped for want of a blob. This is the one way left to lose a blob
// under its metadata, since a segment never holds a record before the
// blob it names.
func TestCrashConsistencyMetaSweep(t *testing.T) {
	img := makeBatchImage(t, false)
	blobEnd := img.ends[2]
	blobs, meta := img.stream[:blobEnd], img.stream[blobEnd:]
	metaEnds := make([]int, 0, len(img.ends)-3)
	for _, end := range img.ends[3:] {
		metaEnds = append(metaEnds, end-blobEnd)
	}
	open := func(t *testing.T, nBlobs, nMeta int) (*Store, Recovery) {
		t.Helper()
		dir := t.TempDir()
		writeCut(t, filepath.Join(dir, segmentName(1)), blobs, nBlobs)
		writeCut(t, filepath.Join(dir, segmentName(2)), meta, nMeta)
		s, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open after cutting the segments at %d and %d: %v", nBlobs, nMeta, err)
		}
		t.Cleanup(func() { s.Close() })
		return s, rec
	}
	for n := 0; n <= len(meta); n++ {
		n := n
		t.Run(fmt.Sprintf("cut=%d", n), func(t *testing.T) {
			s, rec := open(t, len(blobs), n)
			want := whole(metaEnds, n)
			checkReplayed(t, s, img, 0, 3+want)
			durable := 0
			if want > 0 {
				durable = metaEnds[want-1]
			}
			if rec.Blobs != 3 || rec.DroppedNoBlob != 0 || rec.LostBytes != int64(n-durable) {
				t.Fatalf("recovery = %+v at cut %d, want 3 blobs, none dropped, %d bytes lost", rec, n, n-durable)
			}
		})
	}
	for n := 0; n <= len(blobs); n++ {
		n := n
		t.Run(fmt.Sprintf("blobs-cut=%d", n), func(t *testing.T) {
			s, rec := open(t, n, len(meta))
			want := whole(img.ends[:3], n)
			// Records 3, 4, 5, 6 are d0's entry, d1's entry, the
			// intermediate on blob 1 and d2's entry; 7 is the epoch.
			names := []int{0, 1, 1, 2}
			dropped := 0
			for i, blob := range names {
				if survived := img.replayed[3+i](s); survived != (blob < want) {
					t.Fatalf("record %d naming blob %d survived=%v with %d blobs whole", 3+i, blob, survived, want)
				}
				if blob >= want {
					dropped++
				}
			}
			if !img.replayed[7](s) {
				t.Fatal("epoch lost with the sealed segment's tail")
			}
			durable := 0
			if want > 0 {
				durable = img.ends[want-1]
			}
			if rec.Blobs != want || rec.DroppedNoBlob != dropped || rec.LostBytes != int64(n-durable) {
				t.Fatalf("recovery = %+v, want %d blobs, %d records dropped for want of a blob, %d bytes lost", rec, want, dropped, n-durable)
			}
		})
	}
}
