package remote

import (
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
