package core

import (
	"bytes"
	"fmt"
	"testing"

	"placeless/internal/clock"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
	"placeless/internal/store"
)

// BenchmarkMissMemoResume4K is the origin's commonest miss on the live
// benchmark's churn_mix, alone: a 4 KiB document under repo.FS behind
// that workload's chain (spell-correct, translate-fr | watermark:<user>),
// memoization on, a real store attached. Every timed read is a user's
// first since the document was rewritten, so it resumes from the
// resident universal cut, runs the one watermark segment, installs and
// demotes bytes nobody has seen. The rewrite and the full miss that
// rebuilds the universal cuts run once per round of users with the
// timer stopped. MD5 bytes per miss is not a metric here — only
// internal/sig's own tests can count hashes — TestMissSignsEachBodyOnce
// pins it there.
func BenchmarkMissMemoResume4K(b *testing.B) {
	const users = 64
	clk := clock.Real{}
	fs, err := repo.NewFS("fs", clk, simnet.NewPath("local", 1), b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	body := func(round int) []byte {
		head := fmt.Sprintf("v%08d|d|", round)
		return append([]byte(head), bytes.Repeat([]byte("teh document is in a cache and recieve the paper\n"), 84)...)[:4096]
	}
	if err := fs.Store("/d", body(0)); err != nil {
		b.Fatal(err)
	}
	space := docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("local", 2)))
	if _, err := space.CreateDocument("d", "owner", &property.RepoBitProvider{Repo: fs, Path: "/d"}); err != nil {
		b.Fatal(err)
	}
	// translate-fr's 2 ms of simulated execution time is left out: a
	// memo-resumed miss never runs it, and the untimed full miss would
	// only sleep.
	for _, p := range []property.Active{property.NewSpellCorrector(0), property.NewTranslator(0)} {
		if err := space.Attach("d", "", docspace.Universal, p); err != nil {
			b.Fatal(err)
		}
	}
	names := make([]string, users)
	for i := range names {
		names[i] = fmt.Sprintf("user%02d", i)
		if _, err := space.AddReference("d", names[i]); err != nil {
			b.Fatal(err)
		}
		if err := space.Attach("d", names[i], docspace.Personal, property.NewWatermarker(names[i], 0)); err != nil {
			b.Fatal(err)
		}
	}
	st, _, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	c := New(space, Options{Name: "bench", Memoize: true, Store: st})
	defer c.Close()

	b.SetBytes(4096)
	b.ReportAllocs()
	before := c.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%users == 0 {
			b.StopTimer()
			if err := space.WriteDocument("d", "owner", body(i/users+1)); err != nil {
				b.Fatal(err)
			}
			if _, err := c.Read("d", "owner"); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := c.Read("d", names[i%users]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := c.Stats()
	rounds := int64((b.N + users - 1) / users)
	if got := after.IntermediateHits - before.IntermediateHits; got != int64(b.N) {
		b.Fatalf("%d of %d timed reads resumed from a memoized cut", got, b.N)
	}
	if got := after.StoreDemotions - before.StoreDemotions; got != int64(b.N)+rounds {
		b.Fatalf("%d entries demoted over %d timed and %d untimed misses", got, b.N, rounds)
	}
	if after.StoreErrors != 0 {
		b.Fatalf("%d store errors", after.StoreErrors)
	}
}
