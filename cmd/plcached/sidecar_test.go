package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/cluster"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/simnet"
	"placeless/internal/store"
)

var users = []string{"amy", "bob", "cam"}

// startOrigin serves one document, readable by every user, from an
// in-process cached placelessd on a loopback port.
func startOrigin(t *testing.T) (string, *server.Server) {
	t.Helper()
	clk := clock.Real{}
	src := repo.NewMem("src", clk, simnet.NewPath("free", 1))
	space := docspace.New(clk, nil)
	origin := core.New(space, core.Options{Name: "origin"})
	srv := server.NewCached(space, src, origin)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
		origin.Close()
	})
	src.Store("/alpha", []byte("hello"))
	if _, err := space.CreateDocument("alpha", users[0], &property.RepoBitProvider{Repo: src, Path: "/alpha"}); err != nil {
		t.Fatal(err)
	}
	for _, u := range users[1:] {
		if _, err := space.AddReference("alpha", u); err != nil {
			t.Fatal(err)
		}
	}
	return ln.Addr().String(), srv
}

// serve answers one request from the sidecar's endpoints.
func serve(mux *http.ServeMux, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// scrape reads the sidecar's /metrics into sample name → value.
func scrape(t *testing.T, mux *http.ServeMux) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	sn := bufio.NewScanner(serve(mux, http.MethodGet, "/metrics", "").Body)
	for sn.Scan() {
		name, value, ok := strings.Cut(sn.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = int64(v)
		}
	}
	return out
}

// sidecarFamilies returns the golden's placeless_remote_* and
// placeless_cluster_* family names: the ones a sidecar exports.
func sidecarFamilies(t *testing.T) []string {
	t.Helper()
	golden, err := os.ReadFile("../../docs/metric_names.golden")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(string(golden), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if strings.HasPrefix(name, "placeless_remote_") || strings.HasPrefix(name, "placeless_cluster_") {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		t.Fatal("the golden names no sidecar family")
	}
	return names
}

// allDisconnected reports whether /status shows every one of the n
// nodes disconnected.
func allDisconnected(t *testing.T, mux *http.ServeMux, n int) bool {
	t.Helper()
	for _, node := range statusNodes(t, mux, n) {
		if node.State != "disconnected" {
			return false
		}
	}
	return true
}

// statusNodes reads the node rows of the sidecar's /status, which must
// number n.
func statusNodes(t *testing.T, mux *http.ServeMux, n int) []cluster.NodeInfo {
	t.Helper()
	var st struct {
		Nodes []cluster.NodeInfo `json:"nodes"`
	}
	if err := json.Unmarshal(serve(mux, http.MethodGet, "/status", "").Body.Bytes(), &st); err != nil || len(st.Nodes) != n {
		t.Fatalf("/status: %d nodes, want %d (%v)", len(st.Nodes), n, err)
	}
	return st.Nodes
}

// TestSidecarIsARing builds plcached from flag values against an
// in-process origin, as a ring of one (-server) and of three
// (-cluster), and checks the one shape both have: a PUT through the
// router reaches every user's next read, /metrics carries every remote
// and cluster family, the routed reads are the nodes' hits + misses +
// coalesced reads, /status has the same keys, and with the origin gone
// a read is a 503 with a retry hint.
func TestSidecarIsARing(t *testing.T) {
	families := sidecarFamilies(t)
	statusKeys := []string{"bytes_resident", "bytes_stored", "degraded_errors", "entries", "epoch_flushes", "failovers", "nodes", "reads", "rebalances", "reconnects", "replicas", "vnodes", "writes"}
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d nodes", n), func(t *testing.T) {
			addr, srv := startOrigin(t)
			mux, closeAll, err := newSidecar(strings.TrimSuffix(strings.Repeat(addr+",", n), ","), 2, cluster.DefaultVNodes, 0,
				server.WithCallTimeout(5*time.Second), server.WithReconnect(time.Millisecond, 10*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(closeAll)

			var reads int64
			get := func(u string) *httptest.ResponseRecorder {
				reads++
				return serve(mux, http.MethodGet, "/doc/alpha?user="+u, "")
			}
			for i := 0; i < 3; i++ {
				for _, u := range users {
					if rec := get(u); rec.Code != http.StatusOK || rec.Body.String() != "hello" {
						t.Fatalf("read as %s: %d %q", u, rec.Code, rec.Body.String())
					}
				}
			}
			if rec := serve(mux, http.MethodPut, "/doc/alpha?user=amy", "bye"); rec.Code != http.StatusNoContent {
				t.Fatalf("write: %d %q", rec.Code, rec.Body.String())
			}
			// A node hears the pushes on its connection before the
			// write's answer there, so a ring of one must answer the new
			// bytes at once; other nodes' pushes travel on their own
			// connections and land a moment later.
			patience := 5 * time.Second
			if n == 1 {
				patience = 0
			}
			for _, u := range users {
				for deadline := time.Now().Add(patience); ; time.Sleep(time.Millisecond) {
					rec := get(u)
					if rec.Code == http.StatusOK && rec.Body.String() == "bye" {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("read as %s after the write: %d %q, want bye", u, rec.Code, rec.Body.String())
					}
				}
			}

			m := scrape(t, mux)
			for _, f := range families {
				if _, ok := m[f]; !ok {
					t.Errorf("/metrics has no %s", f)
				}
			}
			if got := m["placeless_cluster_reads_total"]; got != reads {
				t.Errorf("router counted %d reads, sent %d", got, reads)
			}
			if served := m["placeless_remote_hits_total"] + m["placeless_remote_misses_total"] + m["placeless_remote_coalesced_misses_total"]; served != reads {
				t.Errorf("nodes served %d reads, router routed %d", served, reads)
			}
			if m["placeless_remote_misses_total"] == 0 || m["placeless_remote_hits_total"] == 0 {
				t.Errorf("want both hits and misses: %v", m)
			}
			if got := m["placeless_cluster_writes_total"]; got != 1 {
				t.Errorf("router counted %d writes, sent 1", got)
			}
			if got := m["placeless_cluster_nodes"]; got != int64(n) {
				t.Errorf("%d ring members, want %d", got, n)
			}
			if got := m["placeless_remote_connection_state"]; got != 1 {
				t.Errorf("connection state %d with every wire up", got)
			}

			var st map[string]json.RawMessage
			if err := json.Unmarshal(serve(mux, http.MethodGet, "/status", "").Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			var keys []string
			for k := range st {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if fmt.Sprint(keys) != fmt.Sprint(statusKeys) {
				t.Errorf("/status keys %v, want %v", keys, statusKeys)
			}
			if got := string(st["entries"]); got != fmt.Sprint(m["placeless_remote_entries"]) {
				t.Errorf("/status entries %s, /metrics %d", got, m["placeless_remote_entries"])
			}
			if got := string(st["bytes_stored"]); got != fmt.Sprint(m["placeless_remote_bytes_stored"]) {
				t.Errorf("/status bytes_stored %s, /metrics %d", got, m["placeless_remote_bytes_stored"])
			}
			for _, node := range statusNodes(t, mux, n) {
				if node.State != "connected" || node.DownSince != "" {
					t.Errorf("node %+v: want connected, never down", node)
				}
			}
			if rec := serve(mux, http.MethodGet, "/ring?doc=alpha&user=amy", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"owners"`) {
				t.Errorf("/ring: %d %q", rec.Code, rec.Body.String())
			}

			// The gauge is the worst node's, so it leaves 1 as soon as one
			// node hears the close; the read below must wait for all of
			// them, or a node still connected answers it from its cache.
			_ = srv.Close()
			for deadline := time.Now().Add(5 * time.Second); !allDisconnected(t, mux, n); {
				if time.Now().After(deadline) {
					t.Fatal("a node still connected 5 s after the origin closed")
				}
				time.Sleep(time.Millisecond)
			}
			if got := scrape(t, mux)["placeless_remote_connection_state"]; got == 1 {
				t.Errorf("connection state %d with every wire down", got)
			}
			rec := serve(mux, http.MethodGet, "/doc/alpha?user=amy", "")
			if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "1" {
				t.Errorf("read with the origin closed: %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
			}
			if m := scrape(t, mux); m["placeless_cluster_degraded_errors_total"] == 0 || m["placeless_cluster_reads_total"] != reads {
				t.Errorf("after the refused read: %d degraded errors, %d reads counted, want some and %d", m["placeless_cluster_degraded_errors_total"], m["placeless_cluster_reads_total"], reads)
			}
			for _, node := range statusNodes(t, mux, n) {
				if node.State != "disconnected" || node.DownSince == "" {
					t.Errorf("node %+v with the origin closed: want disconnected, with down_since", node)
				}
			}
		})
	}
}

// TestSidecarKeepsEachHeadOnce: eight users read three documents
// through a ring of three nodes over a memoizing origin with a disk
// tier, where every view is the document's universal output and the
// reader's watermark banner. Every read, miss or hit, returns the
// origin's bytes; /status reports every node's bytes_stored as its
// views' full lengths and the total as their sum, and bytes_resident,
// the one blob store the nodes share, as one head per document plus
// the banners, however many nodes hold views of the document. Then the
// origin restarts on the same store directory: the sidecar's reconnect
// flushes every node, each key's next read is a disk promote at the
// origin, and the census must come out the same, heads still kept
// once.
func TestSidecarKeepsEachHeadOnce(t *testing.T) {
	const docs = 3
	readers := []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7"}
	clk := clock.Real{}
	src := repo.NewMem("src", clk, simnet.NewPath("free", 1))
	space := docspace.New(clk, nil)
	dir := t.TempDir()
	var (
		addr   = "127.0.0.1:0"
		st     *store.Store
		origin *core.Cache
		srv    *server.Server
		done   chan struct{}
	)
	// start boots the origin over the store directory on addr; stop
	// takes it down, as a process exit would.
	start := func() {
		t.Helper()
		var err error
		if st, _, err = store.Open(dir, store.Options{}); err != nil {
			t.Fatal(err)
		}
		origin = core.New(space, core.Options{Name: "origin", Memoize: true, Store: st})
		srv = server.NewCached(space, src, origin)
		var ln net.Listener
		for i := 0; i < 200; i++ {
			if ln, err = net.Listen("tcp", addr); err == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err != nil {
			t.Fatal(err)
		}
		addr = ln.Addr().String()
		done = make(chan struct{})
		go func(srv *server.Server, done chan struct{}) {
			defer close(done)
			_ = srv.Serve(ln)
		}(srv, done)
	}
	stop := func() {
		_ = srv.Close()
		<-done
		origin.Close()
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}
	start()
	t.Cleanup(func() { stop() })
	direct, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { direct.Close() })
	for d := 0; d < docs; d++ {
		doc := fmt.Sprint("doc", d)
		body := strings.Repeat(fmt.Sprintf("teh memo %d recieve the hello world ", d), 100)
		if err := direct.CreateDocument(doc, readers[0], []byte(body)); err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"spell-correct", "translate-fr"} {
			if err := direct.Attach(doc, "", false, spec); err != nil {
				t.Fatal(err)
			}
		}
		for i, u := range readers {
			if i > 0 {
				if err := direct.AddReference(doc, u); err != nil {
					t.Fatal(err)
				}
			}
			if err := direct.Attach(doc, u, true, "watermark:"+u); err != nil {
				t.Fatal(err)
			}
		}
	}
	mux, closeAll, err := newSidecar(strings.Join([]string{addr, addr, addr}, ","), 2, cluster.DefaultVNodes, 0,
		server.WithCallTimeout(5*time.Second), server.WithReconnect(5*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(closeAll)

	views := map[string][]byte{} // doc + user → the origin's bytes
	for d := 0; d < docs; d++ {
		doc := fmt.Sprint("doc", d)
		for _, u := range readers {
			view, _, err := direct.Read(doc, u)
			if err != nil {
				t.Fatal(err)
			}
			views[doc+"/"+u] = view
		}
	}
	// census reads every key through the sidecar, twice, and checks the
	// bytes each node is charged and the bytes the sidecar keeps.
	census := func(leg string) {
		t.Helper()
		want := map[string]int64{} // bytes_stored by node name
		var resident int64
		spread := map[string]bool{} // node + doc: a node holds views of doc
		for d := 0; d < docs; d++ {
			doc := fmt.Sprint("doc", d)
			for _, u := range readers {
				view := views[doc+"/"+u]
				for _, pass := range []string{"miss", "hit"} {
					if rec := serve(mux, http.MethodGet, "/doc/"+doc+"?user="+u, ""); rec.Code != http.StatusOK || rec.Body.String() != string(view) {
						t.Fatalf("%s: %s as %s, %s: %d %q; the origin answers %q", leg, doc, u, pass, rec.Code, rec.Body.String(), view)
					}
				}
				// With every node up the key's primary owner serves it.
				var ring struct{ Owners []string }
				if err := json.Unmarshal(serve(mux, http.MethodGet, "/ring?doc="+doc+"&user="+u, "").Body.Bytes(), &ring); err != nil || len(ring.Owners) == 0 {
					t.Fatalf("%s: /ring for %s/%s: %v", leg, doc, u, err)
				}
				want[ring.Owners[0]] += int64(len(view))
				spread[ring.Owners[0]+doc] = true
				tail := int64(len("\n-- retrieved for " + u + " --\n"))
				resident += tail
				if u == readers[0] {
					resident += int64(len(view)) - tail // the document's head
				}
			}
		}
		if len(spread) <= docs {
			t.Fatalf("%s: no document has views on two nodes, so no head could be kept twice", leg)
		}
		var stored int64
		for _, node := range statusNodes(t, mux, 3) {
			if node.BytesStored != want[node.Name] {
				t.Errorf("%s: node %s: bytes_stored %d, want %d", leg, node.Name, node.BytesStored, want[node.Name])
			}
			stored += want[node.Name]
		}
		var st struct {
			Stored   int64 `json:"bytes_stored"`
			Resident int64 `json:"bytes_resident"`
		}
		if err := json.Unmarshal(serve(mux, http.MethodGet, "/status", "").Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Stored != stored || st.Resident != resident {
			t.Fatalf("%s: /status: bytes_stored %d, bytes_resident %d; want %d and %d", leg, st.Stored, st.Resident, stored, resident)
		}
		if m := scrape(t, mux); m["placeless_remote_bytes_stored"] != st.Stored {
			t.Fatalf("%s: /metrics bytes_stored %d, /status %d", leg, m["placeless_remote_bytes_stored"], st.Stored)
		}
	}
	census("first reads")

	stop()
	start()
	// Every node reconnects and flushes what it cached under the old
	// connection before the census reads again.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		up := 0
		for _, node := range statusNodes(t, mux, 3) {
			if node.State == "connected" && node.Entries == 0 {
				up++
			}
		}
		if up == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the sidecar did not reconnect and flush within 10 s of the origin's restart")
		}
	}
	census("after the origin's restart")
	if got, want := origin.Stats().StorePromotions, int64(len(views)); got != want {
		t.Fatalf("the restarted origin promoted %d entries from disk, want every key's %d", got, want)
	}
}
