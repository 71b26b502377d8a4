package cluster

import (
	"fmt"
	"strings"
	"testing"

	"placeless/internal/stream"
)

// nopPeer answers every read with the same bytes and every write with
// nil: a peer that costs nothing, so a benchmark over it times the
// routing alone.
type nopPeer struct{ data []byte }

func (p nopPeer) Read(doc, user string) ([]byte, error) { return p.data, nil }
func (p nopPeer) ReadBody(doc, user string) (stream.Body, error) {
	return stream.Body{Head: p.data}, nil
}
func (p nopPeer) Write(doc, user string, data []byte) error { return nil }

// nopCluster is a cluster of n no-op peers at the default replica
// count and vnode count.
func nopCluster(tb testing.TB, n int) *Cache {
	tb.Helper()
	c := New(Options{})
	for i := 0; i < n; i++ {
		if err := c.AddNode(fmt.Sprintf("n%d", i), nopPeer{data: []byte("x")}); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// BenchmarkClusterRoute is a cluster.Cache.Read over three no-op peers:
// the key's ring position, its owners and their peers, and the call to
// the primary — what the ring adds to every sidecar read.
func BenchmarkClusterRoute(b *testing.B) {
	c := nopCluster(b, 3)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("doc%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Read(keys[i%len(keys)], "u"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRouteAllocatesNothing: at the default replica count a routed read
// or write resolves its owners and their peers without a heap
// allocation, whatever the key's length.
func TestRouteAllocatesNothing(t *testing.T) {
	c := nopCluster(t, 3)
	doc := strings.Repeat("a long document name ", 4)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.Read(doc, "u"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a routed read allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Write(doc, "u", nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a routed write allocates %v times", n)
	}
}

// TestRouteAgreesWithOwners: routing hashes doc and user without
// building the key, and must land on the owner set Owners reports.
func TestRouteAgreesWithOwners(t *testing.T) {
	c := nopCluster(t, 5)
	for i := 0; i < 200; i++ {
		doc, user := fmt.Sprintf("doc%d", i), fmt.Sprintf("user%d", i%7)
		if hashDocUser(doc, user) != hashKey(Key(doc, user)) {
			t.Fatalf("hashDocUser(%q, %q) differs from hashKey of its key", doc, user)
		}
		_, via, err := c.ReadVia(doc, user)
		if err != nil {
			t.Fatal(err)
		}
		if owners := c.Owners(doc, user); via != owners[0] {
			t.Fatalf("%s/%s routed to %s, owners %v", doc, user, via, owners)
		}
	}
}
