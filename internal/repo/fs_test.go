package repo

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"placeless/internal/clock"
)

// Writers alternate same-length and different-length bodies on one
// path while readers fetch it: every fetch returns one of the bodies
// whole. Without the path lock an in-place overwrite shows a reader
// part of each (and the O_TRUNC it replaced showed an empty or short
// file).
func TestFSStoreFetchNeverTorn(t *testing.T) {
	f, _ := newFS(t)
	bodies := [][]byte{
		bytes.Repeat([]byte("a"), 8<<10),
		bytes.Repeat([]byte("b"), 8<<10),
		bytes.Repeat([]byte("c"), 3000),
		bytes.Repeat([]byte("d"), 20<<10),
	}
	const path = "/doc"
	if err := f.Store(path, bodies[0]); err != nil {
		t.Fatal(err)
	}
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 100; i++ {
				if err := f.Store(path, bodies[(i+w)%len(bodies)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var fetches atomic.Int64
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				fr, err := f.Fetch(path)
				if err != nil {
					t.Error(err)
					return
				}
				fetches.Add(1)
				whole := false
				for _, b := range bodies {
					whole = whole || bytes.Equal(fr.Data, b)
				}
				if !whole {
					t.Errorf("torn fetch: %d bytes, starts %.8q ends %.8q", len(fr.Data), fr.Data, fr.Data[len(fr.Data)*7/8:])
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if fetches.Load() == 0 {
		t.Fatal("no fetch ran beside the stores")
	}
}

// A store leaves exactly its bytes in the file whatever length the
// file had: same size, shorter, empty, longer. The nested path also
// covers creating missing parent directories.
func TestFSStoreReplacesAnyLength(t *testing.T) {
	f, dir := newFS(t)
	const path = "/new/sub/doc.bin"
	for i, size := range []int{4096, 4096, 10, 0, 50000, 4096} {
		body := bytes.Repeat([]byte{byte('A' + i)}, size)
		if err := f.Store(path, body); err != nil {
			t.Fatalf("store %d (%d bytes): %v", i, size, err)
		}
		onDisk, err := os.ReadFile(filepath.Join(dir, "new", "sub", "doc.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, body) {
			t.Fatalf("store %d: file holds %d bytes, want the %d stored", i, len(onDisk), size)
		}
		fr, err := f.Fetch(path)
		if err != nil || !bytes.Equal(fr.Data, body) || fr.Meta.Size != int64(size) {
			t.Fatalf("store %d: fetch = %d bytes (meta %d), %v", i, len(fr.Data), fr.Meta.Size, err)
		}
	}
}

// An overwrite that changes neither the inode nor the length is still
// a modification the mtime verifier can see.
func TestFSStoreBumpsVersionAndMTime(t *testing.T) {
	f, _ := newFS(t)
	if err := f.Store("/f.txt", []byte("one")); err != nil {
		t.Fatal(err)
	}
	m1, err := f.Stat("/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	// File systems stamp mtime from the coarse clock: two writes inside
	// one tick (up to 10 ms) can share a timestamp.
	time.Sleep(20 * time.Millisecond)
	if err := f.Store("/f.txt", []byte("two")); err != nil {
		t.Fatal(err)
	}
	m2, err := f.Stat("/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version <= m1.Version || !m2.ModTime.After(m1.ModTime) {
		t.Fatalf("same-size store not visible: version %d -> %d, mtime %v -> %v", m1.Version, m2.Version, m1.ModTime, m2.ModTime)
	}
}

// BenchmarkFSStoreOverwrite4K rewrites 192 existing 4 KiB documents
// round-robin with bodies of the same size — the origin's steady-state
// document write (churn_mix in bench/). It reports the p99 beside the
// mean because the cost it guards against, the file system freeing and
// reallocating the file's blocks, is heavy-tailed.
func BenchmarkFSStoreOverwrite4K(b *testing.B) {
	const files, size = 192, 4 << 10
	f, err := NewFS("fs", clock.NewVirtual(epoch), fastPath(), b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, size)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/d%03d", i)
		if err := f.Store(paths[i], body); err != nil {
			b.Fatal(err)
		}
	}
	lat := make([]time.Duration, b.N)
	b.SetBytes(size)
	b.ResetTimer()
	for i := range lat {
		body[0] = byte(i)
		t0 := time.Now()
		if err := f.Store(paths[i%files], body); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns/op")
}
