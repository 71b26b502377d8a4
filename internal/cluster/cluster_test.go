package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/remote"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/simnet"
)

// testCluster is a 3-node cluster over one origin server on an
// in-process simnet (no kernel TCP, no ports): each node has its own
// listener endpoint, client connection, and remote cache, exactly the
// production wiring with the network virtualized.
type testCluster struct {
	net     *simnet.Net
	space   *docspace.Space
	origin  *core.Cache
	srv     *server.Server
	cl      *Cache
	clients map[string]*server.Client
	caches  map[string]*remote.Cache
}

func newTestCluster(t *testing.T, nodes int, replicas int, o *obs.Observer) *testCluster {
	t.Helper()
	clk := clock.Real{}
	net := simnet.NewNet(clk, rand.New(rand.NewSource(1)))
	src := repo.NewMem("src", clk, simnet.NewPath("free", 1))
	space := docspace.New(clk, nil)
	origin := core.New(space, core.Options{Name: "origin"})
	srv := server.NewCached(space, src, origin)
	tc := &testCluster{
		net: net, space: space, origin: origin, srv: srv,
		cl:      New(Options{Replicas: replicas, VNodes: 32, Observer: o}),
		clients: map[string]*server.Client{},
		caches:  map[string]*remote.Cache{},
	}
	for i := 0; i < nodes; i++ {
		tc.addNode(t, fmt.Sprintf("n%d", i))
	}
	t.Cleanup(func() {
		for _, rc := range tc.caches {
			rc.Close()
		}
		for _, c := range tc.clients {
			_ = c.Close()
		}
		_ = srv.Close()
		origin.Close()
	})
	// One document, several users.
	src.Store("/alpha", []byte("hello"))
	if _, err := space.CreateDocument("alpha", "amy", &property.RepoBitProvider{Repo: src, Path: "/alpha"}); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"bob", "cam"} {
		if _, err := space.AddReference("alpha", u); err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

func (tc *testCluster) addNode(t *testing.T, name string) {
	t.Helper()
	ln := tc.net.Listen("srv-" + name)
	go func() { _ = tc.srv.Serve(ln) }()
	client, err := server.Dial("srv-"+name,
		server.WithDialer(tc.net.Dial),
		server.WithCallTimeout(5*time.Second),
		server.WithReconnect(time.Millisecond, 10*time.Millisecond),
	)
	if err != nil {
		t.Fatalf("dial %s: %v", name, err)
	}
	rc := remote.New(client, remote.Options{})
	tc.clients[name] = client
	tc.caches[name] = rc
	if err := tc.cl.AddNode(name, rc); err != nil {
		t.Fatal(err)
	}
}

// TestClusterRoutesToOwners checks that reads land on (and fill) the
// ring owners, and that every node answers with the same bytes.
func TestClusterRoutesToOwners(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil)
	owners := tc.cl.Owners("alpha", "amy")
	if len(owners) != 2 {
		t.Fatalf("owners = %v, want 2", owners)
	}
	data, via, err := tc.cl.ReadVia("alpha", "amy")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("hello")) {
		t.Fatalf("read %q", data)
	}
	if via != owners[0] {
		t.Fatalf("served via %s, want primary %s", via, owners[0])
	}
	if !tc.caches[via].Contains("alpha", "amy") {
		t.Fatal("primary did not cache the read")
	}
	// Re-read: a hit on the same owner.
	before := tc.caches[via].Stats().Hits
	if _, _, err := tc.cl.ReadVia("alpha", "amy"); err != nil {
		t.Fatal(err)
	}
	if tc.caches[via].Stats().Hits != before+1 {
		t.Fatal("second read did not hit the primary's cache")
	}
	if st := tc.cl.Stats(); st.Reads != 2 || st.Failovers != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestClusterFailover closes the primary and expects a read, then a
// write, of the same key to fail over to the replica.
func TestClusterFailover(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil)
	owners := tc.cl.Owners("alpha", "bob")
	primary := owners[0]
	// Make the primary refuse: close its cache (ErrClosed is
	// failoverable, and unlike a conn kill it cannot race a reconnect).
	tc.caches[primary].Close()
	data, via, err := tc.cl.ReadVia("alpha", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if via != owners[1] {
		t.Fatalf("served via %s, want replica %s", via, owners[1])
	}
	if !bytes.Equal(data, []byte("hello")) {
		t.Fatalf("read %q", data)
	}
	if st := tc.cl.Stats(); st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", st.Failovers)
	}
	// A write to the same key fails over past the same closed primary.
	if err := tc.cl.Write("alpha", "bob", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if st := tc.cl.Stats(); st.Failovers != 2 || st.Writes != 1 || st.DegradedErrors != 0 {
		t.Fatalf("after the write: %+v, want 2 failovers, 1 write, no degraded error", st)
	}
}

// TestClusterFailoverPastClosedClient closes the primary's wire
// client, not its cache: every call on it then fails with
// server.ErrClientClosed, which must fail over like a closed cache
// rather than surface as a document-level error.
func TestClusterFailoverPastClosedClient(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil)
	owners := tc.cl.Owners("alpha", "cam")
	if err := tc.clients[owners[0]].Close(); err != nil {
		t.Fatal(err)
	}
	if err := tc.cl.Write("alpha", "cam", []byte("v2")); err != nil {
		t.Fatalf("write with the primary's client closed: %v", err)
	}
	data, via, err := tc.cl.ReadVia("alpha", "cam")
	if err != nil {
		t.Fatal(err)
	}
	if via != owners[1] || !bytes.Equal(data, []byte("v2")) {
		t.Fatalf("read %q via %s, want \"v2\" via replica %s", data, via, owners[1])
	}
	if st := tc.cl.Stats(); st.Failovers != 2 || st.DegradedErrors != 0 {
		t.Fatalf("stats = %+v, want 2 failovers and no degraded error", st)
	}
}

// TestClusterAllOwnersDegraded closes every owner: the read must
// return a typed degraded error, not bytes, and so must a write. A
// refused operation counts as a degraded error, not as routed.
func TestClusterAllOwnersDegraded(t *testing.T) {
	tc := newTestCluster(t, 2, 2, nil)
	for _, rc := range tc.caches {
		rc.Close()
	}
	_, err := tc.cl.Read("alpha", "amy")
	if err == nil {
		t.Fatal("read succeeded with every owner closed")
	}
	if !errors.Is(err, remote.ErrClosed) {
		t.Fatalf("err = %v, want errors.Is remote.ErrClosed", err)
	}
	if st := tc.cl.Stats(); st.DegradedErrors != 1 {
		t.Fatalf("DegradedErrors = %d, want 1", st.DegradedErrors)
	}
	if err := tc.cl.Write("alpha", "amy", []byte("v2")); !errors.Is(err, remote.ErrClosed) {
		t.Fatalf("write err = %v, want errors.Is remote.ErrClosed", err)
	}
	if st := tc.cl.Stats(); st.DegradedErrors != 2 || st.Failovers != 0 || st.Reads != 0 || st.Writes != 0 {
		t.Fatalf("after the write: %+v, want 2 degraded errors and nothing routed", st)
	}
}

// TestClusterInvalidationFanout pins the tentpole consistency claim:
// a write through one node invalidates the copies every other node
// cached, because each node's own subscription rides its own
// connection to the shared origin.
func TestClusterInvalidationFanout(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil)
	// Warm every node directly (bypassing the ring) so all three hold
	// the key.
	for name, rc := range tc.caches {
		if _, err := rc.Read("alpha", "amy"); err != nil {
			t.Fatalf("warm %s: %v", name, err)
		}
		if !rc.Contains("alpha", "amy") {
			t.Fatalf("%s did not cache the warm read", name)
		}
	}
	if err := tc.cl.Write("alpha", "amy", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Pushes are async; poll briefly for the fanout to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stale := 0
		for _, rc := range tc.caches {
			if rc.Contains("alpha", "amy") {
				stale++
			}
		}
		if stale == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d nodes still hold the invalidated entry", stale)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for name, rc := range tc.caches {
		got, err := rc.Read("alpha", "amy")
		if err != nil {
			t.Fatalf("re-read %s: %v", name, err)
		}
		if !bytes.Equal(got, []byte("v2")) {
			t.Fatalf("%s served %q after the fanout, want v2", name, got)
		}
	}
}

// TestClusterConcurrentReadsAndWrites drives the router from several
// goroutines at once, reads and writes interleaved on one document:
// every operation is answered, every read returns bytes some write
// left, and the router's read count is exactly the nodes' hits +
// misses + coalesced reads. Run it under -race.
func TestClusterConcurrentReadsAndWrites(t *testing.T) {
	tc := newTestCluster(t, 3, 2, nil)
	users := []string{"amy", "bob", "cam"}
	const workers, ops = 6, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				u := users[(w+i)%len(users)]
				if i%10 == 9 {
					if err := tc.cl.Write("alpha", u, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
						errs <- fmt.Errorf("write as %s: %w", u, err)
						return
					}
					continue
				}
				data, err := tc.cl.Read("alpha", u)
				if err != nil {
					errs <- fmt.Errorf("read as %s: %w", u, err)
					return
				}
				if s := string(data); s != "hello" && !strings.HasPrefix(s, "w") {
					errs <- fmt.Errorf("read as %s: %q, which no write left", u, s)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := tc.cl.Stats()
	var served int64
	for _, rc := range tc.caches {
		ns := rc.Stats()
		served += ns.Hits + ns.Misses + ns.CoalescedMisses
	}
	const writes = workers * (ops / 10)
	if st.Reads != workers*ops-writes || st.Writes != writes {
		t.Errorf("router counted %d reads, %d writes; sent %d, %d", st.Reads, st.Writes, workers*ops-writes, writes)
	}
	if served != st.Reads {
		t.Errorf("nodes served %d reads, router routed %d", served, st.Reads)
	}
	if st.Failovers != 0 || st.DegradedErrors != 0 {
		t.Errorf("%d failovers, %d degraded errors with every wire up", st.Failovers, st.DegradedErrors)
	}
}

// TestClusterMembershipAndInfo exercises join/leave bookkeeping and
// the status surface.
func TestClusterMembershipAndInfo(t *testing.T) {
	tc := newTestCluster(t, 2, 2, nil)
	if err := tc.cl.AddNode("n0", tc.caches["n0"]); err == nil {
		t.Fatal("duplicate AddNode succeeded")
	}
	tc.addNode(t, "n2")
	if got := tc.cl.Nodes(); len(got) != 3 {
		t.Fatalf("Nodes = %v", got)
	}
	info := tc.cl.Info()
	total := 0.0
	for _, ni := range info {
		if ni.State != "connected" {
			t.Fatalf("node %s state %q, want connected", ni.Name, ni.State)
		}
		total += ni.Share
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %v", total)
	}
	if !tc.cl.RemoveNode("n2") || tc.cl.RemoveNode("n2") {
		t.Fatal("RemoveNode bookkeeping wrong")
	}
	if st := tc.cl.Stats(); st.Rebalances != 4 {
		// 2 initial joins + 1 join + 1 leave.
		t.Fatalf("Rebalances = %d, want 4", st.Rebalances)
	}
	// Ownership after the leave excludes the departed node.
	for _, u := range []string{"amy", "bob", "cam"} {
		for _, o := range tc.cl.Owners("alpha", u) {
			if o == "n2" {
				t.Fatalf("departed node still owns alpha/%s", u)
			}
		}
	}
}

// TestClusterMetrics registers the placeless_cluster_* families and
// checks they move.
func TestClusterMetrics(t *testing.T) {
	o := obs.NewObserver()
	tc := newTestCluster(t, 2, 2, o)
	if _, err := tc.cl.Read("alpha", "amy"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"placeless_cluster_reads_total 1",
		"placeless_cluster_nodes 2",
		"placeless_cluster_replicas 2",
		"placeless_cluster_rebalances_total 2",
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
