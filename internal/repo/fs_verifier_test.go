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
	v := property.MTimeVerifier{Repo: f, Path: "/f.txt", ModTime: fr.Meta.ModTime, Version: fr.Meta.Version}
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
