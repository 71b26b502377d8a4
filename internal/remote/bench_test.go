package remote

import (
	"fmt"
	"testing"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/simnet"
)

// BenchmarkRemoteMiss64K is the sidecar's miss path — the wire_large
// shape: a 64 KiB document warm in a cached loopback origin, read
// through a remote cache whose 1-byte capacity evicts every install, so
// each iteration pays the wire read, the install and the eviction. It
// is the remote-cache companion of server's BenchmarkWireRead64K (it
// lives here because package server cannot import this one).
func BenchmarkRemoteMiss64K(b *testing.B) {
	const size = 64 << 10
	clk := clock.NewVirtual(epoch)
	space := docspace.New(clk, nil)
	origin := core.New(space, core.Options{Name: "bench", Capacity: 64 << 20})
	b.Cleanup(func() { origin.Close() })
	srv := server.NewCached(space, repo.NewMem("srv", clk, simnet.NewPath("loop", 1)), origin)
	client := serveAndDial(b, srv)
	if err := client.CreateDocument("d", "u", make([]byte, size)); err != nil {
		b.Fatal(err)
	}
	cache := New(client, Options{Capacity: 1})
	if _, err := cache.Read("d", "u"); err != nil { // warm the origin, subscribe
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := cache.Read("d", "u")
		if err != nil || len(data) != size {
			b.Fatalf("read = %d bytes, %v", len(data), err)
		}
	}
	b.StopTimer()
	if st := cache.Stats(); st.Hits != 0 {
		b.Fatalf("%d hits: the benchmark must miss on every read", st.Hits)
	}
}

// BenchmarkRemoteFirstMiss4K is the cold path of a key: every timed
// read is the first one this cache makes of its (doc, user), so each
// pays for the subscription as well as the bytes — one frame, where
// the separate Subscribe call before wire version 4 made it two round
// trips. One 4 KiB document behind an uncached loopback origin, a fresh
// user (with a reference, so the notifiers attach) per iteration.
func BenchmarkRemoteFirstMiss4K(b *testing.B) {
	const size = 4 << 10
	clk := clock.NewVirtual(epoch)
	space := docspace.New(clk, nil)
	srv := server.New(space, repo.NewMem("srv", clk, simnet.NewPath("loop", 1)))
	client := serveAndDial(b, srv)
	if err := client.CreateDocument("d", "owner", make([]byte, size)); err != nil {
		b.Fatal(err)
	}
	users := make([]string, b.N)
	for i := range users {
		users[i] = fmt.Sprintf("u%d", i)
		if _, err := space.AddReference("d", users[i]); err != nil {
			b.Fatal(err)
		}
	}
	cache := New(client, Options{})
	before, _, _ := srv.Counters()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for _, u := range users {
		data, err := cache.Read("d", u)
		if err != nil || len(data) != size {
			b.Fatalf("read = %d bytes, %v", len(data), err)
		}
	}
	b.StopTimer()
	after, _, _ := srv.Counters()
	b.ReportMetric(float64(after-before)/float64(b.N), "requests/op")
	if st := cache.Stats(); st.Hits != 0 || cache.Len() != b.N {
		b.Fatalf("%d hits, %d of %d keys cached: every read must be a first miss that installs", st.Hits, cache.Len(), b.N)
	}
}

// BenchmarkRemoteHit8K is the sidecar's hit — the hot_small shape: an
// 8 KiB document warm in the remote cache, read again and again, so no
// iteration touches the wire. The bytes a hit returns are the table's
// own, so B/op stays far below the body's size.
func BenchmarkRemoteHit8K(b *testing.B) {
	const size = 8 << 10
	clk := clock.NewVirtual(epoch)
	space := docspace.New(clk, nil)
	srv := server.New(space, repo.NewMem("srv", clk, simnet.NewPath("loop", 1)))
	client := serveAndDial(b, srv)
	if err := client.CreateDocument("d", "u", make([]byte, size)); err != nil {
		b.Fatal(err)
	}
	cache := New(client, Options{})
	if _, err := cache.Read("d", "u"); err != nil { // the miss that installs
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := cache.Read("d", "u")
		if err != nil || len(data) != size {
			b.Fatalf("read = %d bytes, %v", len(data), err)
		}
	}
	b.StopTimer()
	if st := cache.Stats(); st.Misses != 1 || st.Hits != int64(b.N) {
		b.Fatalf("%d misses, %d hits: every timed read must be a hit", st.Misses, st.Hits)
	}
}
