package remote

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/sig"
	"placeless/internal/simnet"
	"placeless/internal/stream"
)

// tailRig is a sidecar over a memoizing origin whose documents run
// [spell-correct, translate-fr] for everyone and a personal watermark
// for each user: every view is the document's universal output, which
// the origin keeps once, and the reader's banner. The sidecar's bytes
// are kept in blobs, which further nodes (node) share.
type tailRig struct {
	origin *core.Cache
	srv    *server.Server
	client *server.Client
	cache  *Cache
	blobs  *core.BlobStore
	users  []string
}

func newTailRig(t *testing.T, docs, users int) *tailRig {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	space := docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("loop", 2)))
	r := &tailRig{origin: core.New(space, core.Options{Name: "origin", Memoize: true})}
	t.Cleanup(r.origin.Close)
	r.srv = server.NewCached(space, repo.NewMem("srv", clk, simnet.NewPath("loop", 1)), r.origin)
	r.client = serveAndDial(t, r.srv)
	r.blobs = core.NewBlobStore()
	r.cache = New(r.client, Options{Blobs: r.blobs})
	for u := 0; u < users; u++ {
		r.users = append(r.users, fmt.Sprintf("user%02d", u))
	}
	for d := 0; d < docs; d++ {
		doc := fmt.Sprint("d", d)
		body := bytes.Repeat([]byte(fmt.Sprintf("teh document %d recieve the hello world ", d)), 64)
		if err := r.client.CreateDocument(doc, r.users[0], body); err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"spell-correct", "translate-fr"} {
			if err := r.client.Attach(doc, "", false, spec); err != nil {
				t.Fatal(err)
			}
		}
		for i, u := range r.users {
			if i > 0 {
				if err := r.client.AddReference(doc, u); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.client.Attach(doc, u, true, "watermark:"+u); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r
}

// node dials the origin again and returns another node of the sidecar:
// a cache with its own connection and table, on the rig's blob store.
func (r *tailRig) node(t *testing.T) *Cache {
	t.Helper()
	client, err := server.Dial(r.srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return New(client, Options{Blobs: r.blobs})
}

// view is what the origin answers user for doc, read past the sidecar.
func (r *tailRig) view(t testing.TB, doc, user string) []byte {
	t.Helper()
	data, _, err := r.client.Read(doc, user)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func banner(user string) string { return "\n-- retrieved for " + user + " --\n" }

// TestTailSharedViewsKeepEachHeadOnce: N users read two documents
// through the sidecar, a miss and then a hit each. Every read returns
// the origin's bytes; the sidecar keeps each document's universal
// output once, as the first view's own leading bytes, and per view only
// its banner, while capacity still charges every view its full length.
// A warm hit on a tail-shared view copies nothing.
func TestTailSharedViewsKeepEachHeadOnce(t *testing.T) {
	const docs, users = 2, 6
	r := newTailRig(t, docs, users)
	var stored, resident int64
	for d := 0; d < docs; d++ {
		doc := fmt.Sprint("d", d)
		var firstMiss []byte
		for _, u := range r.users {
			want := r.view(t, doc, u)
			for _, pass := range []string{"miss", "hit"} {
				got, err := r.cache.Read(doc, u)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s as %s, %s: %q, %v; the origin answers %q", doc, u, pass, got, err, want)
				}
				if firstMiss == nil {
					firstMiss = got
				}
			}
			body, err := r.cache.ReadBody(doc, u)
			if err != nil || string(body.Tail) != banner(u) || unsafe.SliceData(body.Head) != unsafe.SliceData(firstMiss) {
				t.Fatalf("%s as %s: the hit is not the document's first view's head and the reader's banner (%d-byte tail, %v)", doc, u, len(body.Tail), err)
			}
			stored += int64(len(want))
			resident += int64(len(body.Tail))
		}
		resident += int64(len(firstMiss) - len(banner(r.users[0])))
	}
	st := r.cache.Stats()
	if st.Misses != docs*users || st.Hits != docs*users*2 {
		t.Fatalf("%d misses, %d hits; want %d and %d", st.Misses, st.Hits, docs*users, docs*users*2)
	}
	if got := r.blobs.BytesResident(); st.BytesStored != stored || got != resident {
		t.Fatalf("BytesStored %d, BytesResident %d; want %d (every view) and %d (the heads once, the banners)", st.BytesStored, got, stored, resident)
	}
	// A warm hit allocates nothing the size of the view.
	const reads = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if body, err := r.cache.ReadBody("d0", r.users[1]); err != nil || len(body.Tail) == 0 {
			t.Fatalf("warm hit: %d-byte tail, %v", len(body.Tail), err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per >= uint64(len(r.view(t, "d0", r.users[1])))/2 {
		t.Fatalf("a warm hit on a tail-shared view allocates %d bytes", per)
	}
}

// TestTailSharedHeadInstallKeepsTheWireBuffer: the sidecar installs a
// view the origin reports as head + tail in those parts. The document's
// first view keeps both where the wire decoded them (its head becomes
// the base), a second view keeps only a copy of its tail, and a view
// whose head is not the resident base's bytes is kept whole.
func TestTailSharedHeadInstallKeepsTheWireBuffer(t *testing.T) {
	r := newTailRig(t, 2, 2)
	amy, bob := r.users[0], r.users[1]
	first, err := r.cache.Read("d0", amy) // the miss: the wire's own allocation
	if err != nil {
		t.Fatal(err)
	}
	body, err := r.cache.ReadBody("d0", amy)
	n := len(first) - len(banner(amy))
	if err != nil || len(body.Head) != n || &body.Head[0] != &first[0] || &body.Tail[0] != &first[n] {
		t.Fatalf("the first view's parts are not the wire's buffer (%d + %d bytes, %v)", len(body.Head), len(body.Tail), err)
	}
	if got := r.blobs.BytesResident(); got != int64(len(first)) {
		t.Fatalf("BytesResident = %d, want the first view's %d: nothing copied", got, len(first))
	}
	second, err := r.cache.Read("d0", bob)
	if err != nil {
		t.Fatal(err)
	}
	body, err = r.cache.ReadBody("d0", bob)
	if err != nil || &body.Head[0] != &first[0] || &body.Tail[0] == &second[n] || string(body.Tail) != banner(bob) {
		t.Fatalf("the second view does not share the head and keep a copy of its tail (%d-byte tail, %v)", len(body.Tail), err)
	}
	if got, want := r.blobs.BytesResident(), int64(len(first)+len(banner(bob))); got != want {
		t.Fatalf("BytesResident = %d, want %d: the second view adds its banner only", got, want)
	}

	// Other bytes resident under d1's head signature: the head the
	// origin reports for d1 does not match them, so its view is whole.
	want, meta, err := r.client.Read("d1", amy)
	if err != nil || meta.HeadLen == 0 {
		t.Fatalf("the origin does not report d1's head: %+v, %v", meta, err)
	}
	forged := bytes.Repeat([]byte("x"), meta.HeadLen)
	if !r.cache.tab.Install(core.Key("x", "holder"), &core.Entry{Doc: "x", User: "holder", Signature: meta.HeadSig}, stream.Body{Head: forged}, r.cache.tab.Gen("x"), sig.Zero) {
		t.Fatal("setup: the other bytes did not go in")
	}
	before := r.blobs.BytesResident()
	if _, err := r.cache.Read("d1", amy); err != nil {
		t.Fatal(err)
	}
	body, err = r.cache.ReadBody("d1", amy)
	if err != nil || len(body.Tail) != 0 || !bytes.Equal(body.Head, want) {
		t.Fatalf("a view on a head that is not the resident base's bytes was split (%d-byte tail, %v)", len(body.Tail), err)
	}
	if got := r.blobs.BytesResident() - before; got != int64(len(want)) {
		t.Fatalf("the whole view added %d resident bytes, want %d", got, len(want))
	}
}

// TestTailSharedViewOfAnEmptyDocument: a watermark over an empty
// document appends to an empty universal output, which is no head to
// share; the origin sends the view whole, and the sidecar serves it
// (a head of zero bytes with a signature is a malformed frame, which
// once took the connection down).
func TestTailSharedViewOfAnEmptyDocument(t *testing.T) {
	r := newTailRig(t, 0, 1)
	amy := r.users[0]
	if err := r.client.CreateDocument("e", amy, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Attach("e", amy, true, "watermark:"+amy); err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"miss", "hit"} {
		body, err := r.cache.ReadBody("e", amy)
		if err != nil || string(body.Bytes()) != banner(amy) || len(body.Tail) != 0 {
			t.Fatalf("%s: %q + %q, %v; want the banner whole", pass, body.Head, body.Tail, err)
		}
	}
}

// viewReaders reads views of d0, each reader one user's on one cache
// in a loop of its own until closed, and fails the test on a read that
// is not the origin's bytes.
type viewReaders struct {
	t     *testing.T
	stop  chan struct{}
	wg    sync.WaitGroup
	reads []*atomic.Int64 // per reader
}

func newViewReaders(t *testing.T) *viewReaders {
	return &viewReaders{t: t, stop: make(chan struct{})}
}

// read starts a reader of user's view on c; want is the view.
func (rd *viewReaders) read(c *Cache, user string, want []byte) {
	n := new(atomic.Int64)
	rd.reads = append(rd.reads, n)
	rd.wg.Add(1)
	go func() {
		defer rd.wg.Done()
		for {
			select {
			case <-rd.stop:
				return
			default:
			}
			body, err := c.ReadBody("d0", user)
			if err != nil {
				rd.t.Errorf("%s: %v", user, err)
				return
			}
			if h := len(body.Head); body.Len() != len(want) || !bytes.Equal(body.Head, want[:h]) || !bytes.Equal(body.Tail, want[h:]) {
				rd.t.Errorf("%s: a read served bytes that are not the view", user)
				return
			}
			n.Add(1)
			// Readers that only hit would otherwise hold the processors
			// for whole time slices while the wire's goroutines wait to
			// carry another reader's miss.
			runtime.Gosched()
		}
	}()
}

// pace returns once every reader has finished n more reads. Read 2 of
// them starts after the call, so with nothing dropped meanwhile it
// installs the view if it misses and read 3 hits: a churn step taken
// between paces cannot starve the readers of hits. It reports false
// when a reader failed or ten seconds passed.
func (rd *viewReaders) pace(n int64) bool {
	base := make([]int64, len(rd.reads))
	for i := range rd.reads {
		base[i] = rd.reads[i].Load()
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := range rd.reads {
		for rd.reads[i].Load() < base[i]+n {
			if rd.t.Failed() || time.Now().After(deadline) {
				return false
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	return true
}

func (rd *viewReaders) close() {
	close(rd.stop)
	rd.wg.Wait()
}

// TestRaceTailSharedHitsWhileViewsChurn: readers hit tail-shared views
// while the views of their document — the first one, whose bytes hold
// the head, included — are invalidated, evicted and fetched again.
// Each churn step waits for every reader to read three more times, so
// the views are fetched again and hit between steps. Every read must
// return the origin's bytes; the race detector checks that a hit reads
// its head and tail with no lock held.
func TestRaceTailSharedHitsWhileViewsChurn(t *testing.T) {
	const users = 4
	r := newTailRig(t, 1, users)
	want := make([][]byte, users)
	for u, user := range r.users {
		want[u] = r.view(t, "d0", user)
	}
	rd := newViewReaders(t)
	for u, user := range r.users {
		rd.read(r.cache, user, want[u])
	}
	for round := 0; round < 200; round++ {
		switch round % 4 {
		case 0:
			r.cache.onInvalidate("d0", r.users[round%users])
		case 1:
			r.cache.tab.Resize(int64(len(want[0]))) // evicts down to about one view
			r.cache.tab.Resize(0)
		case 2:
			r.cache.onInvalidate("d0", "")
		}
		if !rd.pace(3) {
			t.Error("the readers failed or made no progress under the churn")
			break
		}
	}
	rd.close()
	if st := r.cache.Stats(); st.Hits == 0 || st.Misses < 2 {
		t.Fatalf("want hits and re-fetches under the churn: %+v", st)
	}
}

// TestRaceTailSharedAcrossNodes: three nodes of one sidecar, on one
// blob store, read every user's view of one document while one of them
// runs reconnect flushes, per-user and per-document invalidations and a
// capacity squeeze. That node alone also reads a last user's view, so
// the churn frees a view built on the head while the other nodes' views
// still build on it. Every read must return the view's bytes, and the
// store must audit clean after every churn step: no head is freed while
// another node's tail builds on it. Quiescent, with every view read
// again, each node is charged each of its views in full while the store
// keeps the document's head once and each banner once; with the three
// caches closed it keeps nothing.
func TestRaceTailSharedAcrossNodes(t *testing.T) {
	const users = 4
	r := newTailRig(t, 1, users)
	nodes := []*Cache{r.cache, r.node(t), r.node(t)}
	churn, last := nodes[0], users-1 // only churn reads the last user's view
	want := make([][]byte, users)
	stored := make([]int64, len(nodes))
	var resident int64
	rd := newViewReaders(t)
	for u, user := range r.users {
		want[u] = r.view(t, "d0", user)
		resident += int64(len(banner(user)))
		for i, c := range nodes {
			if u != last || c == churn {
				rd.read(c, user, want[u])
				stored[i] += int64(len(want[u]))
			}
		}
	}
	resident += int64(len(want[0]) - len(banner(r.users[0]))) // the head
	for round := 0; round < 80; round++ {
		switch round % 4 {
		case 0:
			churn.onConnState(server.StateConnected, churn.client.Epoch()) // a reconnect's flush
		case 1:
			churn.onInvalidate("d0", r.users[round%users])
		case 2:
			churn.tab.Resize(int64(len(want[0]))) // evicts down to about one view
			churn.tab.Resize(0)
		case 3:
			churn.onInvalidate("d0", "")
		}
		if err := r.blobs.Audit(); err != nil {
			t.Errorf("round %d: %v", round, err)
			break
		}
		if !rd.pace(3) {
			t.Error("the readers failed or made no progress under the churn")
			break
		}
	}
	rd.close()
	if t.Failed() {
		return
	}
	for i, c := range nodes {
		for u, user := range r.users {
			for pass := 0; pass < 2 && (u != last || c == churn); pass++ {
				if got, err := c.Read("d0", user); err != nil || !bytes.Equal(got, want[u]) {
					t.Fatalf("node %d, %s, quiescent: %q, %v", i, user, got, err)
				}
			}
		}
		if err := c.Audit(); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if st := c.Stats(); st.Hits == 0 || st.BytesStored != stored[i] {
			t.Fatalf("node %d: %d hits, BytesStored %d; want hits and each of its views in full, %d", i, st.Hits, st.BytesStored, stored[i])
		}
	}
	if err := r.blobs.Audit(); err != nil {
		t.Fatal(err)
	}
	if got := r.blobs.BytesResident(); got != resident {
		t.Fatalf("BytesResident %d, want the head once and each banner once, %d", got, resident)
	}
	for _, c := range nodes {
		c.Close()
	}
	if got := r.blobs.BytesResident(); got != 0 {
		t.Fatalf("with every node closed BytesResident = %d, want 0", got)
	}
	if err := r.blobs.Audit(); err != nil {
		t.Fatal(err)
	}
}
