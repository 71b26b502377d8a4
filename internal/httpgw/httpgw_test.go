package httpgw

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/sig"
	"placeless/internal/simnet"
)

var epoch = time.Date(1999, time.March, 28, 0, 0, 0, 0, time.UTC)

type env struct {
	src   *repo.Mem
	space *docspace.Space
	cache *core.Cache
	ts    *httptest.Server
}

func newEnv(t *testing.T, cached bool) *env {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	e := &env{
		src:   repo.NewMem("disk", clk, simnet.Local(1)),
		space: docspace.New(clk, nil),
	}
	if cached {
		e.cache = core.New(e.space, core.Options{Name: "gw"})
	}
	e.ts = httptest.NewServer(New(e.space, e.cache))
	t.Cleanup(e.ts.Close)
	return e
}

func (e *env) addDoc(t *testing.T, id, owner string, content []byte) {
	t.Helper()
	e.src.Store("/"+id, content)
	if _, err := e.space.CreateDocument(id, owner, &property.RepoBitProvider{Repo: e.src, Path: "/" + id}); err != nil {
		t.Fatal(err)
	}
}

// get fetches a document and returns body, cache header, status.
func (e *env) get(t *testing.T, id, user string) (string, string, int) {
	t.Helper()
	resp, err := http.Get(e.ts.URL + "/doc/" + id + "?user=" + user)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body), resp.Header.Get("X-Placeless-Cache"), resp.StatusCode
}

func TestGetPersonalizedViews(t *testing.T) {
	e := newEnv(t, true)
	e.addDoc(t, "memo", "alice", []byte("teh memo"))
	e.space.AddReference("memo", "bob")
	e.space.Attach("memo", "alice", docspace.Personal, property.NewSpellCorrector(0))

	alice, hdr, code := e.get(t, "memo", "alice")
	if code != 200 || alice != "the memo" || hdr != "MISS" {
		t.Fatalf("alice: %q %s %d", alice, hdr, code)
	}
	bob, _, _ := e.get(t, "memo", "bob")
	if bob != "teh memo" {
		t.Fatalf("bob: %q", bob)
	}
	_, hdr, _ = e.get(t, "memo", "alice")
	if hdr != "HIT" {
		t.Fatalf("second read header = %s", hdr)
	}
}

func TestPutWritesThrough(t *testing.T) {
	e := newEnv(t, true)
	e.addDoc(t, "memo", "alice", []byte("v1"))
	req, _ := http.NewRequest(http.MethodPut, e.ts.URL+"/doc/memo?user=alice", strings.NewReader("v2"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	fr, _ := e.src.Fetch("/memo")
	if string(fr.Data) != "v2" {
		t.Fatalf("stored %q", fr.Data)
	}
	body, _, _ := e.get(t, "memo", "alice")
	if body != "v2" {
		t.Fatalf("read-back %q", body)
	}
}

func TestNotFoundAndBadRequests(t *testing.T) {
	e := newEnv(t, true)
	e.addDoc(t, "memo", "alice", []byte("x"))
	if _, _, code := e.get(t, "ghost", "alice"); code != http.StatusNotFound {
		t.Fatalf("missing doc status = %d", code)
	}
	if _, _, code := e.get(t, "memo", "stranger"); code != http.StatusNotFound {
		t.Fatalf("no-reference status = %d", code)
	}
	resp, _ := http.Get(e.ts.URL + "/doc/memo") // no user
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing user status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(e.ts.URL + "/doc/") // empty id
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty id status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, e.ts.URL+"/doc/memo?user=alice", nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestListVisibleDocs(t *testing.T) {
	e := newEnv(t, true)
	e.addDoc(t, "a", "alice", []byte("1"))
	e.addDoc(t, "b", "bob", []byte("2"))
	e.space.AddReference("b", "alice")
	e.addDoc(t, "c", "carol", []byte("3"))

	resp, err := http.Get(e.ts.URL + "/docs?user=alice")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var docs []string
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("docs = %v", docs)
	}
	resp, _ = http.Get(e.ts.URL + "/docs?user=nobody")
	var empty []string
	json.NewDecoder(resp.Body).Decode(&empty)
	resp.Body.Close()
	if len(empty) != 0 {
		t.Fatalf("nobody sees %v", empty)
	}
}

func TestFindEndpoint(t *testing.T) {
	e := newEnv(t, true)
	e.addDoc(t, "b1", "alice", []byte("1"))
	e.addDoc(t, "b2", "alice", []byte("2"))
	e.space.AttachStatic("b1", "", docspace.Universal, property.Static{Key: "budget related"})
	e.space.AttachStatic("b2", "", docspace.Universal, property.Static{Key: "status", Value: "draft"})

	resp, err := http.Get(e.ts.URL + "/find?user=alice&key=budget+related")
	if err != nil {
		t.Fatal(err)
	}
	var matches []map[string]string
	json.NewDecoder(resp.Body).Decode(&matches)
	resp.Body.Close()
	if len(matches) != 1 || matches[0]["doc"] != "b1" || matches[0]["level"] != "universal" {
		t.Fatalf("matches = %v", matches)
	}
	// Value filter.
	resp, _ = http.Get(e.ts.URL + "/find?user=alice&key=status&value=final")
	matches = nil
	json.NewDecoder(resp.Body).Decode(&matches)
	resp.Body.Close()
	if len(matches) != 0 {
		t.Fatalf("value filter leaked: %v", matches)
	}
	// Missing key parameter.
	resp, _ = http.Get(e.ts.URL + "/find?user=alice")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing key status = %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	e := newEnv(t, true)
	e.addDoc(t, "d", "u", []byte("x"))
	e.get(t, "d", "u")
	e.get(t, "d", "u")
	resp, err := http.Get(e.ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st core.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUncachedGateway(t *testing.T) {
	e := newEnv(t, false)
	e.addDoc(t, "d", "u", []byte("raw"))
	body, hdr, code := e.get(t, "d", "u")
	if code != 200 || body != "raw" || hdr != "BYPASS" {
		t.Fatalf("%q %s %d", body, hdr, code)
	}
	resp, _ := http.Get(e.ts.URL + "/stats")
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(b)) != "{}" {
		t.Fatalf("uncached stats = %q", b)
	}
	// PUT through the uncached gateway.
	req, _ := http.NewRequest(http.MethodPut, e.ts.URL+"/doc/d?user=u", strings.NewReader("v2"))
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
}

func TestHeadRequest(t *testing.T) {
	e := newEnv(t, true)
	e.addDoc(t, "d", "u", []byte("head me"))
	resp, err := http.Head(e.ts.URL + "/doc/d?user=u")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) != 0 {
		t.Fatalf("HEAD status=%d body=%q", resp.StatusCode, body)
	}
	if resp.Header.Get("ETag") == "" || resp.Header.Get("Content-Length") != "7" {
		t.Fatalf("HEAD headers: etag=%q len=%q", resp.Header.Get("ETag"), resp.Header.Get("Content-Length"))
	}
}

func TestETagConditionalGet(t *testing.T) {
	e := newEnv(t, true)
	e.addDoc(t, "d", "u", []byte("etag me"))

	resp, err := http.Get(e.ts.URL + "/doc/d?user=u")
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag header")
	}

	// Revalidation with the matching tag: 304, no body.
	req, _ := http.NewRequest(http.MethodGet, e.ts.URL+"/doc/d?user=u", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("status=%d body=%q", resp.StatusCode, body)
	}

	// Content changes → tag mismatch → full response with a new tag.
	reqPut, _ := http.NewRequest(http.MethodPut, e.ts.URL+"/doc/d?user=u", strings.NewReader("changed"))
	respPut, _ := http.DefaultClient.Do(reqPut)
	respPut.Body.Close()
	resp, _ = http.DefaultClient.Do(req)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "changed" {
		t.Fatalf("after change: %d %q", resp.StatusCode, body)
	}
	if resp.Header.Get("ETag") == etag {
		t.Fatal("ETag did not change with content")
	}
}

// TestETagIsTheContentSignature: the ETag is the body's signature
// whichever way the body was produced — a cache miss, a hit, a read the
// cache may not store, and the uncached gateway — and sending it back
// answers 304.
func TestETagIsTheContentSignature(t *testing.T) {
	cached, uncached := newEnv(t, true), newEnv(t, false)
	for _, e := range []*env{cached, uncached} {
		e.addDoc(t, "d", "u", []byte("signed body"))
		e.src.Store("/live", []byte("frame 1"))
		live := &property.RepoBitProvider{Repo: e.src, Path: "/live", Vote: property.Uncacheable}
		if _, err := e.space.CreateDocument("live", "u", live); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		e        *env
		doc, hdr string
	}{
		{cached, "d", "MISS"},
		{cached, "d", "HIT"},
		{cached, "live", "MISS"},
		{cached, "live", "MISS"},
		{uncached, "d", "BYPASS"},
	} {
		url := tc.e.ts.URL + "/doc/" + tc.doc + "?user=u"
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		etag := resp.Header.Get("ETag")
		if got := resp.Header.Get("X-Placeless-Cache"); got != tc.hdr {
			t.Fatalf("%s: outcome %s, want %s", tc.doc, got, tc.hdr)
		}
		if want := `"` + sig.Of(body).String() + `"`; etag != want {
			t.Fatalf("%s %s: ETag %s, want the signature of %q, %s", tc.doc, tc.hdr, etag, body, want)
		}
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("If-None-Match", etag)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("%s %s: revalidation status %d, want 304", tc.doc, tc.hdr, resp.StatusCode)
		}
	}
	if st := cached.cache.Stats(); st.Uncacheable == 0 {
		t.Fatalf("the live document was cached: %+v", st)
	}
}

func TestInvalidationVisibleThroughGateway(t *testing.T) {
	e := newEnv(t, true)
	e.addDoc(t, "d", "alice", []byte("v1"))
	e.space.AddReference("d", "bob")
	e.get(t, "d", "alice") // warm
	// Bob writes over HTTP; Alice's next GET must be fresh (MISS).
	req, _ := http.NewRequest(http.MethodPut, e.ts.URL+"/doc/d?user=bob", strings.NewReader("v2 by bob"))
	resp, _ := http.DefaultClient.Do(req)
	resp.Body.Close()
	body, hdr, _ := e.get(t, "d", "alice")
	if body != "v2 by bob" || hdr != "MISS" {
		t.Fatalf("alice got %q (%s)", body, hdr)
	}
}

// TestMetricsScrapeEndToEnd drives reads through the gateway and then
// scrapes /metrics and /debug/traces over HTTP — the full path an
// operator's Prometheus scrape takes.
func TestMetricsScrapeEndToEnd(t *testing.T) {
	clk := clock.NewVirtual(epoch)
	o := obs.NewObserver()
	e := &env{
		src:   repo.NewMem("disk", clk, simnet.Local(1)),
		space: docspace.New(clk, nil),
	}
	e.cache = core.New(e.space, core.Options{Name: "gw", Observer: o})
	gw := New(e.space, e.cache)
	gw.EnableObservability(o)
	e.ts = httptest.NewServer(gw)
	t.Cleanup(e.ts.Close)

	e.addDoc(t, "d", "eyal", []byte("content"))
	for i := 0; i < 3; i++ {
		if _, hdr, code := e.get(t, "d", "eyal"); code != http.StatusOK {
			t.Fatalf("GET %d: status %d, header %s", i, code, hdr)
		}
	}

	resp, err := http.Get(e.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		"placeless_cache_hits_total 2",
		"placeless_cache_misses_total 1",
		`placeless_reads_total{verdict="hit"} 2`,
		`placeless_reads_total{verdict="miss"} 1`,
		"placeless_read_duration_seconds_count 3",
		`placeless_read_stage_duration_seconds_count{stage="bit_fetch"} 1`,
		"placeless_traces_recorded_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	tresp, err := http.Get(e.ts.URL + "/debug/traces?n=10")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var dump obs.TraceDump
	if err := json.NewDecoder(tresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Total != 3 || len(dump.Traces) != 3 {
		t.Fatalf("trace dump total=%d len=%d, want 3/3", dump.Total, len(dump.Traces))
	}
	if dump.Traces[0].Verdict != "hit" || dump.Traces[2].Verdict != "miss" {
		t.Errorf("trace verdicts newest-first = %s..%s, want hit..miss",
			dump.Traces[0].Verdict, dump.Traces[2].Verdict)
	}

	presp, err := http.Get(e.ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status = %d", presp.StatusCode)
	}
}
