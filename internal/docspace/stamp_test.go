package docspace

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/sig"
	"placeless/internal/simnet"
)

// fsDoc builds a space on the real clock with one document, "d", owned
// by eyal, stored as the file <dir>/d of a repo.FS, and returns the
// space and the file's path.
func fsDoc(t *testing.T, content []byte) (*Space, string) {
	t.Helper()
	dir := t.TempDir()
	clk := clock.Real{}
	fs, err := repo.NewFS("fs", clk, simnet.NewPath("local", 1), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Store("/d", content); err != nil {
		t.Fatal(err)
	}
	s := New(clk, nil)
	if _, err := s.CreateDocument("d", "eyal", &property.RepoBitProvider{Repo: fs, Path: "/d"}); err != nil {
		t.Fatal(err)
	}
	return s, filepath.Join(dir, "d")
}

// A store through WriteDocument retires the source stamp even when
// the verifiers cannot see it: here the new bytes have the old length
// and the file gets its old mtime back, so the mtime poll passes and
// only the write count shows the change.
func TestContentKeySeesSameSizeWriteUnderRestoredMTime(t *testing.T) {
	s, full := fsDoc(t, []byte("version one"))
	if _, err := s.ContentKey("d", "eyal"); err != nil { // stamps the source
		t.Fatal(err)
	}
	before, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	next := []byte("version two")
	if err := s.WriteDocument("d", "eyal", next); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(full, before.ModTime(), before.ModTime()); err != nil {
		t.Fatal(err)
	}
	ck, err := s.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if ck.SourceSig != sig.Of(next) {
		t.Fatalf("SourceSig = %v after an in-process write, want the new bytes' %v", ck.SourceSig, sig.Of(next))
	}
}

// Writers race ContentKey callers on one file. Every body has the same
// length and every write puts the file's mtime back to one instant, as
// if all of them landed inside one mtime tick, so the verifiers alone
// cannot order them; once everyone is done the key must still be the
// signature of the bytes on disk.
func TestSourceStampRacesWrites(t *testing.T) {
	body := func(w, i int) []byte { return []byte(fmt.Sprintf("writer %d body %04d", w, i)) }
	s, full := fsDoc(t, body(0, 0))
	tick, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers, rounds = 2, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := s.WriteDocument("d", "eyal", body(w, i)); err != nil {
					t.Error(err)
					return
				}
				if err := os.Chtimes(full, tick.ModTime(), tick.ModTime()); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := s.ContentKey("d", "eyal"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	onDisk, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := s.ContentKey("d", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if ck.SourceSig != sig.Of(onDisk) {
		t.Fatalf("SourceSig = %v, but the file holds %q (%v)", ck.SourceSig, onDisk, sig.Of(onDisk))
	}
}

// openCounter is a sliceProvider, which registers no verifier, that
// counts its opens.
type openCounter struct {
	sliceProvider
	opens int
}

func (p *openCounter) Open(rc *property.ReadContext) ([]byte, error) {
	p.opens++
	return p.sliceProvider.Open(rc)
}

// A provider that registers no verifier makes no promise a stamp could
// rest on: every probe opens it again.
func TestContentKeyNeverStampsAVerifierlessProvider(t *testing.T) {
	f := newFixture(t)
	p := &openCounter{sliceProvider: sliceProvider{data: []byte("bytes")}}
	if _, err := f.space.CreateDocument("d", "eyal", p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.space.ContentKey("d", "eyal"); err != nil {
			t.Fatal(err)
		}
	}
	if p.opens != 3 {
		t.Fatalf("3 probes opened the provider %d times, want 3", p.opens)
	}
}

// The stamp reuses a signature only while the provider's own verifiers
// hold: a TTL source is fetched again once its deadline passes.
func TestContentKeyRefetchesAfterTTL(t *testing.T) {
	f := newFixture(t)
	web := repo.NewWeb("web", f.clk, simnet.Local(2), 30*time.Second, true)
	web.SetPage("/p", []byte("page v1"))
	if _, err := f.space.CreateDocument("p", "eyal", &property.RepoBitProvider{Repo: web, Path: "/p"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.space.ContentKey("p", "eyal"); err != nil {
		t.Fatal(err)
	}
	web.SetPage("/p", []byte("page v2"))
	f.clk.Advance(31 * time.Second)
	ck, err := f.space.ContentKey("p", "eyal")
	if err != nil {
		t.Fatal(err)
	}
	if ck.SourceSig != sig.Of([]byte("page v2")) {
		t.Fatalf("SourceSig after the TTL = %v, want the new page's", ck.SourceSig)
	}
}
