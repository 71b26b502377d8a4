package server

import (
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/repo"
	"placeless/internal/simnet"
	"placeless/internal/store"
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

// benchCachedServer boots a cached loopback server holding one
// document of the given size, warm, and dials it. With st non-nil the
// document's home is the disk tier instead: st is seeded with its
// bytes and the cache is too small to hold it, so every read misses
// there and the server streams the body from st's segment file (it
// streams only bodies of at least defaultStreamMin; a warm hit is
// written from memory).
func benchCachedServer(b *testing.B, size int, st *store.Store) (*Server, *Client) {
	b.Helper()
	clk := clock.NewVirtual(time.Date(1999, 3, 28, 0, 0, 0, 0, time.UTC))
	space := docspace.New(clk, nil)
	capacity := int64(64 << 20)
	if st != nil {
		capacity = int64(size / 2)
	}
	cache := core.New(space, core.Options{Name: "bench", Capacity: capacity})
	b.Cleanup(func() { cache.Close() })
	srv := NewCached(space, repo.NewMem("srv", clk, simnet.NewPath("loop", 1)), cache)
	if st != nil {
		srv.SetStore(st)
	}
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
	body := make([]byte, size)
	if err := c.CreateDocument("d", "u", body); err != nil {
		b.Fatal(err)
	}
	if st != nil {
		if _, err := st.PutBlob(body); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := c.Read("d", "u"); err != nil { // warm the cache and the connection
		b.Fatal(err)
	}
	b.Cleanup(func() {
		c.Close()
		srv.Close()
		<-done
	})
	return srv, c
}

// A reader returns one goroutine's read call on c for a size-byte body.
type reader func(c *Client, size int) func() ([]byte, error)

// readCopy reads with Read: every body is a fresh allocation.
func readCopy(c *Client, _ int) func() ([]byte, error) {
	return func() ([]byte, error) {
		data, _, err := c.Read("d", "u")
		return data, err
	}
}

// readInto reads with ReadInto into one buffer per goroutine: the read
// loop decodes every body into it.
func readInto(c *Client, size int) func() ([]byte, error) {
	buf := make([]byte, size)
	return func() ([]byte, error) {
		data, _, err := c.ReadInto("d", "u", buf)
		return data, err
	}
}

// benchWireRead measures reads of one size-byte document with 8
// callers pipelining on one connection, each reading with read: warm
// hits, or with st non-nil streamed misses (see benchCachedServer).
func benchWireRead(b *testing.B, size int, read reader, st *store.Store) *Server {
	srv, c := benchCachedServer(b, size, st)
	b.SetParallelism(8)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		next := read(c, size)
		for pb.Next() {
			data, err := next()
			if err != nil {
				b.Fatal(err)
			}
			if len(data) != size {
				b.Fatalf("read %d bytes, want %d", len(data), size)
			}
		}
	})
	return srv
}

// BenchmarkWireRead64K is the acceptance workload for the binary
// framing: payload handling dominates.
func BenchmarkWireRead64K(b *testing.B) { benchWireRead(b, 64<<10, readCopy, nil) }

// BenchmarkWireRead4K is the small-frame size, where fixed per-op
// costs dominate payload handling.
func BenchmarkWireRead4K(b *testing.B) { benchWireRead(b, 4<<10, readCopy, nil) }

// BenchmarkWireReadInto64K is BenchmarkWireRead64K through ReadInto:
// allocs/op is what the client's zero-copy body path leaves per read.
func BenchmarkWireReadInto64K(b *testing.B) { benchWireRead(b, 64<<10, readInto, nil) }

// BenchmarkWireReadStreamed1M reads a 1 MiB body, above
// defaultStreamMin, whose home is the disk tier: every read is a miss
// in the server's memory tier, and its response body is streamed from
// the segment file.
func BenchmarkWireReadStreamed1M(b *testing.B) {
	st, _, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() }) // after the server's cleanup
	srv := benchWireRead(b, 1<<20, readInto, st)
	if n := srv.StreamedReads(); n < int64(b.N) {
		b.Fatalf("%d of %d reads were streamed from the store", n, b.N)
	}
}
