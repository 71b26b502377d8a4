// Full-stack integration tests: repository → document space → TCP
// server → client → remote cache, exercising the complete deployment
// the paper describes (applications with a co-located cache talking to
// remote Placeless servers).
package placeless

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/nfs"
	"placeless/internal/property"
	"placeless/internal/remote"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/simnet"
)

var integEpoch = time.Date(1999, time.March, 28, 0, 0, 0, 0, time.UTC)

// startServer boots a server on loopback and returns its address.
func startServer(t *testing.T) (string, *docspace.Space, *repo.Mem) {
	t.Helper()
	clk := clock.NewVirtual(integEpoch)
	backing := repo.NewMem("srv", clk, simnet.NewPath("loop", 1))
	space := docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("loop", 2)))
	srv := server.New(space, backing)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 200; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("server did not start")
	}
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return addr, space, backing
}

func TestFullStackCollaboration(t *testing.T) {
	addr, _, _ := startServer(t)

	// Two client machines, each with its own connection and local
	// cache.
	dial := func() (*server.Client, *remote.Cache) {
		c, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, remote.New(c, remote.Options{})
	}
	eyalClient, eyalCache := dial()
	_, dougCache := dial()

	// Eyal creates the draft and personalizes with spell correction.
	if err := eyalClient.CreateDocument("hotos", "eyal", []byte("teh draft, v1")); err != nil {
		t.Fatal(err)
	}
	if err := eyalClient.AddReference("hotos", "doug"); err != nil {
		t.Fatal(err)
	}
	if err := eyalClient.Attach("hotos", "eyal", true, "spell-correct"); err != nil {
		t.Fatal(err)
	}

	// Both machines read through their caches.
	eyalView, err := eyalCache.Read("hotos", "eyal")
	if err != nil || string(eyalView) != "the draft, v1" {
		t.Fatalf("eyal view = %q, %v", eyalView, err)
	}
	dougView, err := dougCache.Read("hotos", "doug")
	if err != nil || string(dougView) != "teh draft, v1" {
		t.Fatalf("doug view = %q, %v", dougView, err)
	}

	// Warm both caches, then Doug writes from his machine; Eyal's
	// machine receives the invalidation push over its own connection.
	eyalCache.Read("hotos", "eyal")
	if err := dougCache.Write("hotos", "doug", []byte("teh draft, v2 by doug")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && eyalCache.Contains("hotos", "eyal") {
		time.Sleep(2 * time.Millisecond)
	}
	if eyalCache.Contains("hotos", "eyal") {
		t.Fatal("cross-machine invalidation never arrived")
	}
	fresh, err := eyalCache.Read("hotos", "eyal")
	if err != nil || string(fresh) != "the draft, v2 by doug" {
		t.Fatalf("eyal fresh view = %q, %v", fresh, err)
	}
}

// TestRemoteMetricsThroughFacade registers two remote caches on one
// Observer through the public API: the scrape carries their summed
// counters and the worst connection state.
func TestRemoteMetricsThroughFacade(t *testing.T) {
	addr, _, _ := startServer(t)
	o := NewObserver()
	var clients []*Client
	var caches []*RemoteCache
	for i := 0; i < 2; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients = append(clients, c)
		caches = append(caches, NewRemoteCache(c, RemoteCacheOptions{Observer: o}))
	}
	if err := clients[0].CreateDocument("memo", "ann", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	RegisterRemoteMetrics(o, caches...)
	for _, c := range []*RemoteCache{caches[0], caches[0], caches[1]} {
		if data, err := c.Read("memo", "ann"); err != nil || string(data) != "hello" {
			t.Fatalf("read: %q, %v", data, err)
		}
	}
	var text bytes.Buffer
	if err := o.Registry().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"placeless_remote_hits_total 1\n",
		"placeless_remote_misses_total 2\n",
		"placeless_remote_entries 2\n",
		"placeless_remote_connection_state 1\n",
		`placeless_read_stage_duration_seconds_count{stage="remote_rtt"} 2` + "\n",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("scrape lacks %q", want)
		}
	}
	clients[1].Close()
	text.Reset()
	if err := o.Registry().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "placeless_remote_connection_state -1\n") {
		t.Error("connection state does not report the closed wire")
	}
}

func TestFullStackConcurrentMachines(t *testing.T) {
	addr, _, _ := startServer(t)
	setup, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if err := setup.CreateDocument("shared", "owner", []byte("concurrent content")); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			cache := remote.New(c, remote.Options{})
			for j := 0; j < 20; j++ {
				data, err := cache.Read("shared", "owner")
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(data, []byte("concurrent content")) {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestFullStackNFSOverLocalSpace(t *testing.T) {
	// The in-process variant: off-the-shelf file access through the
	// NFS layer with a shared application cache, versioning on the
	// base, and compression storage.
	clk := clock.NewVirtual(integEpoch)
	disk := repo.NewMem("disk", clk, simnet.Local(1))
	archive := repo.NewDMS("dms", clk, simnet.Local(2))
	space := docspace.New(clk, archive)
	cache := core.New(space, core.Options{Name: "app"})

	disk.Store("/report", []byte("quarterly report: draft"))
	if _, err := space.CreateDocument("report", "alice", &property.RepoBitProvider{Repo: disk, Path: "/report"}); err != nil {
		t.Fatal(err)
	}
	if err := space.Attach("report", "", docspace.Universal, property.NewVersioning()); err != nil {
		t.Fatal(err)
	}
	if err := space.Attach("report", "", docspace.Universal, property.NewCompressor(6, 0)); err != nil {
		t.Fatal(err)
	}

	fs := nfs.MountCached(cache, space, "alice")
	f, err := fs.Create("report")
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Repeat("results improved across the board. ", 40)
	f.Write([]byte(body))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Stored bytes are compressed; the view through NFS is plain.
	stored, _ := disk.Fetch("/report")
	if len(stored.Data) >= len(body) {
		t.Fatalf("stored %d bytes uncompressed", len(stored.Data))
	}
	got, err := fs.ReadFile("report")
	if err != nil || string(got) != body {
		t.Fatalf("read-back mismatch: %d bytes, %v", len(got), err)
	}
	// The pre-write content was archived (uncompressed snapshot of
	// the transformed view at write time).
	if n := archive.Versions("/archive/report/version-1"); n != 1 {
		t.Fatalf("archive versions = %d", n)
	}
}
