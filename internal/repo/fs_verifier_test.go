package repo_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

// An out-of-band edit that lands in the middle of a Fetch must not be
// vouched for: whatever bytes the fetch returned, the verifier built
// from its metadata (as RepoBitProvider.Open builds it) has to fail on
// the next check. Reading first and stat-ing afterwards paired the old
// bytes with the new mtime, and that verifier passed forever.
func TestFSFetchStatsBeforeRead(t *testing.T) {
	dir := t.TempDir()
	f, err := repo.NewFS("fs", clock.NewVirtual(time.Unix(0, 0)), simnet.NewPath("test", 1), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Store("/f.txt", []byte("old bytes")); err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, "f.txt")
	f.SetAfterStat(func() {
		if err := os.WriteFile(full, []byte("new bytes"), 0o644); err != nil {
			t.Error(err)
		}
		future := time.Now().Add(time.Hour)
		if err := os.Chtimes(full, future, future); err != nil {
			t.Error(err)
		}
	})
	fr, err := f.Fetch("/f.txt")
	f.SetAfterStat(nil)
	if err != nil {
		t.Fatal(err)
	}
	v := property.MTimeVerifier{Repo: f, Path: "/f.txt", ModTime: fr.Meta.ModTime, Version: fr.Meta.Version, Size: fr.Meta.Size}
	ok, err := v.Check(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("verifier vouches for a fetch (%q, mtime %v) that an out-of-band edit raced", fr.Data, fr.Meta.ModTime)
	}
	fr, err = f.Fetch("/f.txt")
	if err != nil || string(fr.Data) != "new bytes" {
		t.Fatalf("refetch = %q, %v", fr.Data, err)
	}
}

// An out-of-band rewrite that changes a file's length and then puts
// its mtime back (cp -p, rsync -t) must fail the verifier the
// bit-provider registers: the restored mtime bumps no synthetic
// version, so only the size shows the change.
func TestFSVerifierCatchesResizeUnderRestoredMTime(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewVirtual(time.Unix(0, 0))
	f, err := repo.NewFS("fs", clk, simnet.NewPath("test", 1), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Store("/f.txt", []byte("old bytes")); err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, "f.txt")
	before, err := os.Stat(full)
	if err != nil {
		t.Fatal(err)
	}
	rc := &property.ReadContext{Doc: "f", Now: clk.Now(), Sleep: func(time.Duration) {}}
	bits := &property.RepoBitProvider{Repo: f, Path: "/f.txt"}
	if _, err := bits.Open(rc); err != nil {
		t.Fatal(err)
	}
	vs := rc.Result().Verifiers
	if len(vs) != 1 {
		t.Fatalf("Open registered %d verifiers, want 1", len(vs))
	}
	if ok, err := vs[0].Check(clk.Now()); !ok || err != nil {
		t.Fatalf("unchanged file: verifier = %v, %v", ok, err)
	}

	if err := os.WriteFile(full, []byte("longer new bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(full, before.ModTime(), before.ModTime()); err != nil {
		t.Fatal(err)
	}
	ok, err := vs[0].Check(clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("verifier vouches for a file rewritten to a new length under its old mtime")
	}
}
