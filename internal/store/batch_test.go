package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"placeless/internal/sig"
	"placeless/internal/stream"
)

// openHeld opens a store whose window timer never fires, so that what
// a test queues stays queued until a size, a read, an epoch, a roll or
// Close writes it — the other flush triggers, one at a time.
func openHeld(t *testing.T, dir string) *Store {
	t.Helper()
	s, _ := openT(t, dir)
	s.mu.Lock()
	s.armed = true // queuedLocked arms the timer only when this is false
	s.mu.Unlock()
	return s
}

// abandon models kill -9: whatever is queued is gone and the files stay
// as the last flush left them.
func (s *Store) abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	s.closeFiles()
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// body4K returns a 4 KiB payload unique to i.
func body4K(i int) []byte {
	return append([]byte(fmt.Sprintf("body %08d ", i)), bytes.Repeat([]byte{byte(i), byte(i >> 8), 'x'}, 1361)...)[:4096]
}

// TestQueuedBlobIsServed: a blob still in the batch is served by
// GetBlob, which writes the batch out to do it.
func TestQueuedBlobIsServed(t *testing.T) {
	t.Run("GetBlob", func(t *testing.T) {
		dir := t.TempDir()
		s := openHeld(t, dir)
		p := []byte("queued, not yet written")
		sg, err := s.PutBlob(p)
		if err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, segmentName(1))
		if size := fileSize(t, seg); size != 0 {
			t.Fatalf("segment holds %d bytes right after the put; nothing was queued", size)
		}
		got, ok := s.GetBlob(sg)
		if !ok {
			t.Fatal("queued blob not served")
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("served %q, want %q", got, p)
		}
		if size := fileSize(t, seg); size != int64(recordHeaderSize+len(p)) {
			t.Fatalf("segment holds %d bytes after the read, want the whole record", size)
		}
	})
}

// TestWindowAndSizeFlush: with nobody reading, a batch reaches the
// files when its window ends, and at once when it is large.
func TestWindowAndSizeFlush(t *testing.T) {
	t.Run("window", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openT(t, dir)
		sg, err := s.PutBlob([]byte("left to the timer"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutEntry(EntryMeta{Doc: "d", User: "u", Sig: sg}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for fileSize(t, filepath.Join(dir, segmentName(1))) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("the window ended a thousand times over and nothing was written")
			}
			time.Sleep(flushWindow)
		}
		s.abandon()
		if _, rec := openT(t, dir); rec.Blobs != 1 || rec.Entries != 1 || rec.LostBytes != 0 {
			t.Fatalf("the timer's flush recovered as %+v, want the blob and its entry whole", rec)
		}
	})
	t.Run("size", func(t *testing.T) {
		dir := t.TempDir()
		s := openHeld(t, dir)
		seg := filepath.Join(dir, segmentName(1))
		for i := 0; fileSize(t, seg) == 0; i++ {
			if i > flushBytes/4096 {
				t.Fatalf("%d bytes queued and still nothing written", i*4096)
			}
			if _, err := s.PutBlob(body4K(i)); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestAbandonInsideWindow is the kill -9 contract: everything flushed
// earlier is intact, only the queued tail is absent, and the segment
// has no torn record for Open to cut away.
func TestAbandonInsideWindow(t *testing.T) {
	dir := t.TempDir()
	s := openHeld(t, dir)
	early, err := s.PutBlob([]byte("flushed before the kill"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(EntryMeta{Doc: "early", User: "u", Sig: early, Gen: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEpoch("other", 4); err != nil {
		t.Fatal(err)
	}
	late, err := s.PutBlob([]byte("still queued at the kill"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(EntryMeta{Doc: "late", User: "u", Sig: late, Gen: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutIntermediate(IntermediateMeta{SourceSig: early, Fingerprint: late, Sig: late}); err != nil {
		t.Fatal(err)
	}
	s.abandon()

	s2, rec := openT(t, dir)
	if rec.LostBytes != 0 {
		t.Fatalf("a kill inside the window left torn bytes: %+v", rec)
	}
	if rec.Blobs != 1 || rec.Entries != 1 || rec.Intermediates != 0 || rec.EpochDocs != 1 {
		t.Fatalf("recovery = %+v, want the one flushed blob, entry and epoch", rec)
	}
	if _, ok := s2.GetBlob(early); !ok {
		t.Fatal("blob flushed before the kill lost")
	}
	if _, ok := s2.GetEntry("early", "u"); !ok {
		t.Fatal("entry flushed before the kill lost")
	}
	if _, ok := s2.GetBlob(late); ok {
		t.Fatal("blob that was only queued survived the kill")
	}
	if _, ok := s2.GetEntry("late", "u"); ok {
		t.Fatal("entry that was only queued survived the kill")
	}
}

// TestAppendEpochWritesThrough: when AppendEpoch returns, its record
// and everything queued before it can be read from the segment — here
// by a second Open of a copy taken while the first store is still open.
func TestAppendEpochWritesThrough(t *testing.T) {
	dir := t.TempDir()
	s := openHeld(t, dir)
	sg, err := s.PutBlob([]byte("queued before the invalidation"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(EntryMeta{Doc: "d", User: "u", Sig: sg, Gen: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEpoch("gone", 9); err != nil {
		t.Fatal(err)
	}

	snap := t.TempDir()
	raw, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snap, segmentName(1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, rec := openT(t, snap)
	if g := s2.Epochs()["gone"]; g != 9 {
		t.Fatalf("epoch on disk = %d, want 9", g)
	}
	if e, ok := s2.GetEntry("d", "u"); !ok || e.Sig != sg || e.Gen != 3 {
		t.Fatalf("entry queued before the epoch not on disk: %+v ok=%v", e, ok)
	}
	if _, ok := s2.GetBlob(sg); !ok {
		t.Fatal("blob queued before the epoch not on disk")
	}
	if rec.LostBytes != 0 {
		t.Fatalf("write-through left torn bytes: %+v", rec)
	}
}

// TestFailedFlush breaks the segment under a queued batch. No ref,
// entry or intermediate may be left pointing at bytes that were not
// written, what was written earlier stays served, and every later put
// fails — which is how the cache's store-error counter hears of a flush
// nobody was waiting for.
func TestFailedFlush(t *testing.T) {
	t.Run("segment", func(t *testing.T) {
		dir := t.TempDir()
		s := openHeld(t, dir)
		early, err := s.PutBlob([]byte("written while the disk worked"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutEntry(EntryMeta{Doc: "early", User: "u", Sig: early}); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendEpoch("x", 1); err != nil {
			t.Fatal(err)
		}
		late, err := s.PutBlob([]byte("queued when it stopped"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutEntry(EntryMeta{Doc: "late", User: "u", Sig: late}); err != nil {
			t.Fatal(err)
		}
		if err := s.PutIntermediate(IntermediateMeta{SourceSig: early, Fingerprint: early, Sig: late}); err != nil {
			t.Fatal(err)
		}

		// A read-only handle refuses the write and still serves reads.
		s.mu.Lock()
		ro, err := os.Open(filepath.Join(dir, segmentName(1)))
		if err != nil {
			t.Fatal(err)
		}
		s.files[1].Close()
		s.files[1] = ro
		s.mu.Unlock()

		if err := s.AppendEpoch("y", 2); err == nil {
			t.Fatal("flush onto a read-only file reported no error")
		}
		_, lateServed := s.GetBlob(late)
		_, lateEntry := s.GetEntry("late", "u")
		_, lateInter := s.GetIntermediate(early, early)
		if lateServed || lateEntry || lateInter {
			t.Fatalf("after the failed flush: blob served=%v entry=%v intermediate=%v, want none", lateServed, lateEntry, lateInter)
		}
		if _, ok := s.GetBlob(early); !ok {
			t.Fatal("blob written before the failure no longer served")
		}
		if _, ok := s.GetEntry("early", "u"); !ok {
			t.Fatal("entry written before the failure dropped")
		}
		if _, err := s.PutBlob([]byte("after the failure")); err == nil {
			t.Fatal("PutBlob after a failed flush reported no error")
		}
		if err := s.PutSigned(early, stream.Body{Head: []byte("written while the disk worked")}); err == nil {
			t.Fatal("PutSigned of a held blob after a failed flush reported no error")
		}
		if err := s.PutEntry(EntryMeta{Doc: "again", User: "u", Sig: early}); err == nil {
			t.Fatal("PutEntry after a failed flush reported no error")
		}
		if err := s.Close(); err == nil {
			t.Fatal("Close after a failed flush reported no error")
		}

		s2, rec := openT(t, dir)
		if _, ok := s2.GetEntry("early", "u"); !ok {
			t.Fatalf("reopen lost what was written before the failure: %+v", rec)
		}
		if _, ok := s2.GetEntry("late", "u"); ok {
			t.Fatal("reopen serves an entry whose flush failed")
		}
		if g := s2.Epochs()["y"]; g != 0 {
			t.Fatalf("reopen replays the epoch whose flush failed: %d", g)
		}
	})
}

// TestPutSigned pins the three answers: a held blob costs an index
// look-up and nothing else (so the payload is not even looked at), a
// new blob is hashed by the store before it is queued, and a signature
// the bytes do not produce is refused with nothing indexed. A body in
// two parts is stored as their concatenation.
func TestPutSigned(t *testing.T) {
	dir := t.TempDir()
	s := openHeld(t, dir)
	p := []byte("signed by the caller")
	sg := sig.Of(p)
	if err := s.PutSigned(sg, stream.Body{Head: p}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSigned(sg, stream.Body{Head: []byte("not looked at")}); err != nil {
		t.Fatalf("PutSigned of a held signature: %v", err)
	}
	if got, ok := s.GetBlob(sg); !ok || !bytes.Equal(got, p) {
		t.Fatalf("held blob = %q ok=%v, want the first payload", got, ok)
	}
	wrong := sig.Of([]byte("some other bytes"))
	if err := s.PutSigned(wrong, stream.Body{Head: []byte("these bytes")}); err == nil {
		t.Fatal("PutSigned accepted a signature its payload does not produce")
	}
	if _, ok := s.GetBlob(wrong); ok {
		t.Fatal("a refused put was indexed")
	}
	split := stream.Body{Head: []byte("a head, "), Tail: []byte("then its tail")}
	if err := s.PutSigned(sig.Of(split.Bytes()), split); err != nil {
		t.Fatalf("PutSigned of a body in two parts: %v", err)
	}
	if got, ok := s.GetBlob(sig.Of(split.Bytes())); !ok || !bytes.Equal(got, split.Bytes()) {
		t.Fatalf("split blob = %q ok=%v, want both parts", got, ok)
	}
	if st := s.Stats(); st.Blobs != 2 {
		t.Fatalf("%d blobs indexed, want 2", st.Blobs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, rec := openT(t, dir); rec.Blobs != 2 || rec.LostBytes != 0 {
		t.Fatalf("recovery = %+v, want the two good records", rec)
	}
}

// TestConcurrentPutsReadsAndEpochs drives every entry point that
// touches the batch from several goroutines, with the real timer, for
// the race detector; then everything put must be there.
func TestConcurrentPutsReadsAndEpochs(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	const workers, each = 4, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p := body4K(w*each + i)
				sg := sig.Of(p)
				if err := s.PutSigned(sg, stream.Body{Head: p}); err != nil {
					t.Error(err)
					return
				}
				doc := fmt.Sprintf("d%d-%d", w, i)
				if err := s.PutEntry(EntryMeta{Doc: doc, User: "u", Sig: sg, Gen: 1}); err != nil {
					t.Error(err)
					return
				}
				switch i % 3 {
				case 0:
					if got, ok := s.GetBlob(sg); !ok || !bytes.Equal(got, p) {
						t.Errorf("blob %s not served back", doc)
					}
				case 1:
					if err := s.AppendEpoch("elsewhere", uint64(i)); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir)
	if rec.Blobs != workers*each || rec.Entries != workers*each || rec.LostBytes != 0 {
		t.Fatalf("recovery = %+v, want %d blobs and entries and no torn bytes", rec, workers*each)
	}
}

// BenchmarkStoreDemote4K is one demotion as the cache issues it: a
// signed 4 KiB body nobody has put before and the entry naming it.
// writes/op is write(2) calls by this process per demotion.
func BenchmarkStoreDemote4K(b *testing.B) {
	s, _, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	bodies := make([][]byte, 256)
	for i := range bodies {
		bodies[i] = body4K(i)
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	before, counted := writeSyscalls()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := bodies[i%len(bodies)]
		binary.BigEndian.PutUint64(p[5:13], uint64(i)) // distinct bytes every iteration
		sg := sig.Of(p)
		if err := s.PutSigned(sg, stream.Body{Head: p}); err != nil {
			b.Fatal(err)
		}
		if err := s.PutEntry(EntryMeta{Doc: "d", User: "u", Sig: sg, Gen: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if after, _ := writeSyscalls(); counted {
		b.ReportMetric(float64(after-before)/float64(b.N), "writes/op")
	}
}

// BenchmarkStoreAppendEpoch is one invalidation's write-through as the
// cache issues it inside a write's request: AppendEpoch landing on a
// demotion still queued in its window, so it writes the batch out.
// writes/op is write(2) calls by this process per invalidation.
func BenchmarkStoreAppendEpoch(b *testing.B) {
	s, _, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.mu.Lock()
	s.armed = true // only the epoch writes the batch out, never the timer
	s.mu.Unlock()
	p := body4K(0)
	b.ReportAllocs()
	var writes int64
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(p[5:13], uint64(i))
		sg := sig.Of(p)
		if err := s.PutSigned(sg, stream.Body{Head: p}); err != nil {
			b.Fatal(err)
		}
		if err := s.PutEntry(EntryMeta{Doc: "d", User: "u", Sig: sg, Gen: uint64(i)}); err != nil {
			b.Fatal(err)
		}
		before, _ := writeSyscalls()
		b.StartTimer()
		if err := s.AppendEpoch("d", uint64(i)+1); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		after, _ := writeSyscalls()
		writes += after - before
	}
	if _, counted := writeSyscalls(); counted {
		b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
	}
}

// writeSyscalls reads this process's write-call count from
// /proc/self/io; ok is false where there is no such file.
func writeSyscalls() (n int64, ok bool) {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		if _, err := fmt.Sscanf(string(line), "syscw: %d", &n); err == nil {
			return n, true
		}
	}
	return 0, false
}
