package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// batchImage is what one flushed batch of n blobs and n entries left in
// the two files, written by the store itself: put everything inside one
// window, Close, read the files back.
type batchImage struct {
	payloads [][]byte
	sigs     []sig.Signature
	seg      []byte // the segment file
	recEnd   []int  // recEnd[i] is the offset just past record i
	meta     []byte // the meta log
	lineEnd  []int  // lineEnd[i] is the offset just past entry d<i>'s line
}

func makeBatchImage(t *testing.T, n int) batchImage {
	t.Helper()
	dir := t.TempDir()
	s := openHeld(t, dir)
	var img batchImage
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf("batch record %d, each a little longer than the last%s", i, bytes.Repeat([]byte{'.'}, 7*i)))
		sg, err := s.PutBlob(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutEntry(EntryMeta{Doc: fmt.Sprintf("d%d", i), User: "u", Sig: sg, Gen: 1}); err != nil {
			t.Fatal(err)
		}
		img.payloads = append(img.payloads, p)
		img.sigs = append(img.sigs, sg)
		img.recEnd = append(img.recEnd, recordHeaderSize+len(p))
		if i > 0 {
			img.recEnd[i] += img.recEnd[i-1]
		}
	}
	if size := fileSize(t, filepath.Join(dir, segmentName(1))); size != 0 {
		t.Fatalf("segment holds %d bytes before any flush; the image would not be one batch", size)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var err error
	if img.seg, err = os.ReadFile(filepath.Join(dir, segmentName(1))); err != nil {
		t.Fatal(err)
	}
	if img.meta, err = os.ReadFile(filepath.Join(dir, metaLogName)); err != nil {
		t.Fatal(err)
	}
	if len(img.seg) != img.recEnd[n-1] {
		t.Fatalf("segment is %d bytes, its %d records encode to %d", len(img.seg), n, img.recEnd[n-1])
	}
	for off := 0; ; {
		nl := bytes.IndexByte(img.meta[off:], '\n')
		if nl < 0 {
			break
		}
		off += nl + 1
		img.lineEnd = append(img.lineEnd, off)
	}
	if len(img.lineEnd) != n || img.lineEnd[n-1] != len(img.meta) {
		t.Fatalf("meta log has %d lines ending at %v of %d bytes, want %d lines", len(img.lineEnd), img.lineEnd, len(img.meta), n)
	}
	return img
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
// the segment image of one flushed batch of three records is cut after
// N bytes for every N, and for each truncation point the store must
// open without error, recover exactly the records that were fully
// durable, serve them byte-exact, and accept new appends.
func TestCrashConsistencySweep(t *testing.T) {
	img := makeBatchImage(t, 3)
	for n := 0; n <= len(img.seg); n++ {
		n := n
		t.Run(fmt.Sprintf("cut=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			writeCut(t, filepath.Join(dir, segmentName(1)), img.seg, n)

			s, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open after cut at %d: %v", n, err)
			}
			defer s.Close()

			want := whole(img.recEnd, n)
			for i, sg := range img.sigs {
				got, ok := s.GetBlob(sg)
				if ok != (i < want) {
					t.Fatalf("record %d served=%v, want %v", i, ok, i < want)
				}
				if ok && !bytes.Equal(got, img.payloads[i]) {
					t.Fatalf("record %d corrupted: %q", i, got)
				}
			}
			if rec.Blobs != want {
				t.Fatalf("recovery indexed %d blobs, want %d", rec.Blobs, want)
			}
			durable := 0
			if want > 0 {
				durable = img.recEnd[want-1]
			}
			if rec.LostBlobBytes != int64(n-durable) {
				t.Fatalf("lost bytes = %d at cut %d, want %d", rec.LostBlobBytes, n, n-durable)
			}

			// The tier must keep working after any cut: append, read
			// back, and survive one more reopen.
			p3 := []byte("post-cut append")
			sig3, err := s.PutBlob(p3)
			if err != nil {
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
			if rec2nd.LostBlobBytes != 0 {
				t.Fatalf("second open after repair still lost %d bytes", rec2nd.LostBlobBytes)
			}
			if got, ok := s2.GetBlob(sig3); !ok || !bytes.Equal(got, p3) {
				t.Fatal("post-cut append lost across reopen")
			}
		})
	}
}

// TestCrashConsistencyMetaSweep applies the same power-cut sweep to
// both halves of a flushed batch of three blobs and the three entries
// naming them. cut=N is "blobs whole, lines torn", the kill between a
// flush's two writes or inside the second: an entry must survive iff
// its newline was durable, and replay must never error or resurrect a
// later one. blobs-cut=N is "lines whole, blobs torn", which cannot come
// from one flush (the records are written first) but can from a disk
// that lost the segment's tail: an entry must survive iff its record
// did.
func TestCrashConsistencyMetaSweep(t *testing.T) {
	img := makeBatchImage(t, 3)
	check := func(t *testing.T, s *Store, surviving int) {
		t.Helper()
		for i := range img.sigs {
			_, ok := s.GetEntry(fmt.Sprintf("d%d", i), "u")
			if ok != (i < surviving) {
				t.Fatalf("entry d%d survived=%v, want %v", i, ok, i < surviving)
			}
		}
	}
	for n := 0; n <= len(img.meta); n++ {
		n := n
		t.Run(fmt.Sprintf("cut=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			writeCut(t, filepath.Join(dir, segmentName(1)), img.seg, len(img.seg))
			writeCut(t, filepath.Join(dir, metaLogName), img.meta, n)
			s, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open after meta cut at %d: %v", n, err)
			}
			defer s.Close()
			want := whole(img.lineEnd, n)
			check(t, s, want)
			durable := 0
			if want > 0 {
				durable = img.lineEnd[want-1]
			}
			if rec.LostMetaBytes != int64(n-durable) {
				t.Fatalf("lost meta bytes = %d at cut %d, want %d", rec.LostMetaBytes, n, n-durable)
			}
			if rec.Blobs != len(img.sigs) || rec.LostBlobBytes != 0 {
				t.Fatalf("whole segment recovered as %+v", rec)
			}
		})
	}
	for n := 0; n <= len(img.seg); n++ {
		n := n
		t.Run(fmt.Sprintf("blobs-cut=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			writeCut(t, filepath.Join(dir, segmentName(1)), img.seg, n)
			writeCut(t, filepath.Join(dir, metaLogName), img.meta, len(img.meta))
			s, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open after segment cut at %d: %v", n, err)
			}
			defer s.Close()
			want := whole(img.recEnd, n)
			check(t, s, want)
			if rec.DroppedNoBlob != len(img.sigs)-want || rec.LostMetaBytes != 0 {
				t.Fatalf("recovery = %+v, want %d entries dropped for want of a blob and a whole log", rec, len(img.sigs)-want)
			}
		})
	}
}
