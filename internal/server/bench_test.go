package server

import (
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

// benchServer boots a loopback server with one document.
func benchServer(b *testing.B) *Client {
	b.Helper()
	clk := clock.NewVirtual(time.Date(1999, 3, 28, 0, 0, 0, 0, time.UTC))
	space := docspace.New(clk, nil)
	srv := New(space, repo.NewMem("srv", clk, simnet.NewPath("loop", 1)))
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 500; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(time.Millisecond)
	}
	if addr == "" {
		b.Fatal("server did not start")
	}
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.CreateDocument("d", "u", make([]byte, 4096)); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		c.Close()
		srv.Close()
		<-done
	})
	return c
}

// BenchmarkRemoteRead measures a full request/response round trip over
// loopback TCP including the wire framing and the middleware read path.
func BenchmarkRemoteRead(b *testing.B) {
	c := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Read("d", "u"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteWrite measures a write round trip.
func BenchmarkRemoteWrite(b *testing.B) {
	c := benchServer(b)
	data := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Write("d", "u", data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireConfigOp is the wire cost of a property mutation (the
// paper's invalidation cause 2): one personal Attach and the Detach
// that undoes it, two round trips whose success responses say nothing.
// allocs/op is the deterministic cell; before wire version 4 each of the
// four frames built a gob encoder or decoder of its own.
func BenchmarkWireConfigOp(b *testing.B) {
	c := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Attach("d", "u", true, "uppercase:2"); err != nil {
			b.Fatal(err)
		}
		if err := c.Detach("d", "u", true, "uppercase"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCachedServer boots a cached loopback server holding one warm
// document of the given size and dials it. This is the E15 workload
// shape.
func benchCachedServer(b *testing.B, size int) *Client {
	b.Helper()
	clk := clock.NewVirtual(time.Date(1999, 3, 28, 0, 0, 0, 0, time.UTC))
	space := docspace.New(clk, nil)
	cache := core.New(space, core.Options{Name: "bench", Capacity: 64 << 20})
	b.Cleanup(func() { cache.Close() })
	srv := NewCached(space, repo.NewMem("srv", clk, simnet.NewPath("loop", 1)), cache)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 500; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(time.Millisecond)
	}
	if addr == "" {
		b.Fatal("server did not start")
	}
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.CreateDocument("d", "u", make([]byte, size)); err != nil {
		b.Fatal(err)
	}
	if _, _, err := c.Read("d", "u"); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.Cleanup(func() {
		c.Close()
		srv.Close()
		<-done
	})
	return c
}

// benchWireRead measures warm-hit reads of one size-byte document with
// 8 callers pipelining on one connection.
func benchWireRead(b *testing.B, size int) {
	c := benchCachedServer(b, size)
	b.SetParallelism(8)
	b.SetBytes(int64(size))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := c.Read("d", "u"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireRead64K is the acceptance workload for the binary
// framing: payload handling dominates.
func BenchmarkWireRead64K(b *testing.B) { benchWireRead(b, 64<<10) }

// BenchmarkWireRead4K is the small-frame size, where fixed per-op
// costs dominate payload handling.
func BenchmarkWireRead4K(b *testing.B) { benchWireRead(b, 4<<10) }
