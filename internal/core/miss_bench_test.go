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

// churnUsers is how many users read the benchmarks' document.
const churnUsers = 64

// churnSpace builds the live benchmark's churn_mix document alone: a
// 4 KiB document under repo.FS behind that workload's chain
// (spell-correct, translate-fr | watermark:<user>) for churnUsers
// users. body(round) is the document's content after round rewrites.
// translate-fr's 2 ms of simulated execution time is left out: the
// benchmarks' timed reads never run it, and an untimed full miss would
// only sleep.
func churnSpace(b *testing.B) (space *docspace.Space, names []string, body func(round int) []byte) {
	b.Helper()
	fs, body := churnSource(b)
	space, names = churnDocSpace(b, fs)
	return space, names, body
}

// churnSource is churnSpace's repository, holding body(0) at /d.
func churnSource(b *testing.B) (fs *repo.FS, body func(round int) []byte) {
	b.Helper()
	fs, err := repo.NewFS("fs", clock.Real{}, simnet.NewPath("local", 1), b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	body = func(round int) []byte {
		head := fmt.Sprintf("v%08d|d|", round)
		return append([]byte(head), bytes.Repeat([]byte("teh document is in a cache and recieve the paper\n"), 84)...)[:4096]
	}
	if err := fs.Store("/d", body(0)); err != nil {
		b.Fatal(err)
	}
	return fs, body
}

// churnDocSpace builds churnSpace's document space over fs: what a
// process starting over the same repository rebuilds.
func churnDocSpace(b *testing.B, fs *repo.FS) (space *docspace.Space, names []string) {
	b.Helper()
	clk := clock.Real{}
	space = docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("local", 2)))
	if _, err := space.CreateDocument("d", "owner", &property.RepoBitProvider{Repo: fs, Path: "/d"}); err != nil {
		b.Fatal(err)
	}
	for _, p := range []property.Active{property.NewSpellCorrector(0), property.NewTranslator(0)} {
		if err := space.Attach("d", "", docspace.Universal, p); err != nil {
			b.Fatal(err)
		}
	}
	names = make([]string, churnUsers)
	for i := range names {
		names[i] = fmt.Sprintf("user%02d", i)
		if _, err := space.AddReference("d", names[i]); err != nil {
			b.Fatal(err)
		}
		if err := space.Attach("d", names[i], docspace.Personal, property.NewWatermarker(names[i], 0)); err != nil {
			b.Fatal(err)
		}
	}
	return space, names
}

// BenchmarkMissMemoResume4K is the origin's commonest miss on the live
// benchmark's churn_mix, alone, with memoization on and a real store
// attached. Every timed read is a user's first since the document was
// rewritten, so it resumes from the resident universal cut, runs the
// one watermark segment, installs and demotes bytes nobody has seen.
// The rewrite and the full miss that rebuilds the universal cuts run
// once per round of users with the timer stopped. Hashes per miss are
// not a metric here — only internal/sig's own tests can count them —
// TestMissSignsEachBodyOnce pins them there.
func BenchmarkMissMemoResume4K(b *testing.B) {
	space, names, body := churnSpace(b)
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
		if i%churnUsers == 0 {
			b.StopTimer()
			if err := space.WriteDocument("d", "owner", body(i/churnUsers+1)); err != nil {
				b.Fatal(err)
			}
			if _, err := c.Read("d", "owner"); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := c.Read("d", names[i%churnUsers]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := c.Stats()
	rounds := int64((b.N + churnUsers - 1) / churnUsers)
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

// BenchmarkPromote4K is the origin's read on the live benchmark's
// restart_recover, alone, on a memoizing cache as `placelessd -memoize`
// runs it (a store forces Memoize on; the option says so here): every
// timed read is a key's first read after a restart, read as the wire
// server reads it (ReadWithInfo, the bytes as the table holds them),
// and served by promoting its durable entry — one live content-key
// probe, one verified blob read, one install. The probe's source signature costs
// a source fetch and its hash for the first user of a round and one
// stat for the other churnUsers−1, which reuse the stamp the first
// left. Each entry's record names the universal cut its view begins
// with: the round's first promote reads its whole blob and keeps that
// head, and the other churnUsers−1 read and allocate only their tails
// on it. Every user's entry is demoted once before the timer starts;
// the restart (close the cache, rebuild the document space over the
// same repository, reopen the store, boot a new cache) runs once per
// round of users with the timer stopped.
func BenchmarkPromote4K(b *testing.B) {
	fs, _ := churnSource(b)
	space, names := churnDocSpace(b, fs)
	dir := b.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Name: "bench", Memoize: true, Store: st}
	c := New(space, opts)
	for _, u := range names {
		if _, err := c.Read("d", u); err != nil {
			b.Fatal(err)
		}
	}
	restart := func() {
		c.Close()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		if st, _, err = store.Open(dir, store.Options{}); err != nil {
			b.Fatal(err)
		}
		opts.Store = st
		space, _ = churnDocSpace(b, fs)
		c = New(space, opts)
	}
	defer func() { c.Close(); st.Close() }()

	var promotions int64
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%churnUsers == 0 {
			b.StopTimer()
			promotions += c.Stats().StorePromotions
			restart()
			b.StartTimer()
		}
		if _, _, err := c.ReadWithInfo("d", names[i%churnUsers]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := c.Stats()
	if promotions += s.StorePromotions; promotions != int64(b.N) {
		b.Fatalf("%d of %d timed reads were promotions", promotions, b.N)
	}
	if s.StoreErrors != 0 {
		b.Fatalf("%d store errors", s.StoreErrors)
	}
}
