package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"placeless/internal/cluster"
	"placeless/internal/obs"
)

// serve starts an httptest server over mux and returns its host:port.
func serve(t *testing.T, mux *http.ServeMux) string {
	t.Helper()
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

func TestHTTPStatsOneSamplePerLine(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`# HELP placeless_cache_hits_total Hits.
# TYPE placeless_cache_hits_total counter
placeless_cache_hits_total 4812
placeless_reads_total{verdict="hit"} 4812
# TYPE placeless_read_duration_seconds histogram
placeless_read_duration_seconds_bucket{le="0.001"} 7
placeless_read_duration_seconds_bucket{le="+Inf"} 9
placeless_read_duration_seconds_sum 0.5
placeless_read_duration_seconds_count 9
`))
	})
	var out bytes.Buffer
	if err := httpStats(serve(t, mux), &out); err != nil {
		t.Fatal(err)
	}
	want := `placeless_cache_hits_total 4812
placeless_reads_total{verdict="hit"} 4812
placeless_read_duration_seconds_sum 0.5
placeless_read_duration_seconds_count 9
`
	if out.String() != want {
		t.Errorf("httpStats output:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestHTTPStatsAgainstObserver scrapes a real Observer mux, so the
// filter is checked against the exposition format the daemons emit.
func TestHTTPStatsAgainstObserver(t *testing.T) {
	o := obs.NewObserver()
	o.ObserveRead(obs.ReadTrace{Verdict: obs.VerdictHit, Total: time.Millisecond})
	mux := http.NewServeMux()
	o.Mount(mux)
	var out bytes.Buffer
	if err := httpStats(serve(t, mux), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, `placeless_reads_total{verdict="hit"} 1`+"\n") {
		t.Errorf("missing hit counter in:\n%s", got)
	}
	if strings.Contains(got, "#") || strings.Contains(got, "_bucket{") {
		t.Errorf("comments or bucket samples leaked:\n%s", got)
	}
}

func TestHTTPStatsNon200(t *testing.T) {
	err := httpStats(serve(t, http.NewServeMux()), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("err = %v, want a 404 status error", err)
	}
}

func TestHTTPTraceRendersNewestFirst(t *testing.T) {
	o := obs.NewObserver()
	at := time.Date(1999, 3, 28, 9, 30, 0, 971e6, time.UTC)
	o.ObserveRead(obs.ReadTrace{Time: at, Doc: "report", User: "kim", Verdict: obs.VerdictHit,
		Total: 210 * time.Microsecond, Lookup: time.Microsecond, Verify: 12 * time.Microsecond})
	o.ObserveRead(obs.ReadTrace{Time: at.Add(33 * time.Millisecond), Doc: "report", User: "eyal", Verdict: obs.VerdictMemo, Cause: obs.CauseContentWrite,
		Total: 1400 * time.Microsecond, BitFetch: 180 * time.Microsecond, Universal: 11 * time.Microsecond, Personal: 1100 * time.Microsecond,
		PrefixCuts: 2, PrefixDepth: 0})
	o.ObserveRead(obs.ReadTrace{Time: at.Add(141 * time.Millisecond), Doc: "report", User: "kim", Verdict: obs.VerdictError, Cause: obs.CauseExternal,
		Total: 18 * time.Millisecond, Err: "repo down"})
	mux := http.NewServeMux()
	o.Mount(mux)

	var out bytes.Buffer
	if err := httpTrace(serve(t, mux), 2, &out); err != nil {
		t.Fatal(err)
	}
	want := "3 traces recorded; showing 2\n" +
		"09:30:01.112  error     external   report/kim  total=18ms err=\"repo down\"\n" +
		"09:30:01.004  memo      content-write report/eyal  total=1.4ms bit_fetch=180µs universal=11µs personal=1.1ms prefix=1/2\n"
	if out.String() != want {
		t.Errorf("httpTrace output:\n%s\nwant:\n%s", out.String(), want)
	}

	out.Reset()
	if err := httpTrace(serve(t, mux), 20, &out); err != nil {
		t.Fatal(err)
	}
	if last := "09:30:00.971  hit       -          report/kim  total=210µs shard_lookup=1µs verify=12µs\n"; !strings.HasSuffix(out.String(), last) {
		t.Errorf("hit line:\n%s\nwant suffix:\n%s", out.String(), last)
	}
}

func TestHTTPTraceBadJSON(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write([]byte("not json")) })
	if err := httpTrace(serve(t, mux), 5, &bytes.Buffer{}); err == nil {
		t.Error("want a decode error")
	}
}

// ringMux serves the /ring shape cmd/plcached emits, off a real ring.
func ringMux(ring *cluster.Ring, states map[string]string) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ring", func(w http.ResponseWriter, r *http.Request) {
		shares := ring.Shares()
		var nodes []cluster.NodeInfo
		for i, n := range ring.Nodes() {
			nodes = append(nodes, cluster.NodeInfo{Name: n, State: states[n], Share: shares[n], Entries: 1000 + i})
		}
		out := map[string]interface{}{"replicas": ring.Replicas(), "vnodes": ring.VNodes(), "nodes": nodes}
		if doc := r.URL.Query().Get("doc"); doc != "" {
			user := r.URL.Query().Get("user")
			out["doc"], out["user"] = doc, user
			out["owners"] = ring.Owners(cluster.Key(doc, user))
		}
		_ = json.NewEncoder(w).Encode(out)
	})
	return mux
}

func TestRingOnlineRendersStateAndOwners(t *testing.T) {
	ring := cluster.NewRing(2, 0)
	for _, n := range []string{"cache-a:7999", "cache-b:7999", "cache-c:7999"} {
		ring.Add(n)
	}
	addr := serve(t, ringMux(ring, map[string]string{
		"cache-a:7999": "connected", "cache-b:7999": "connected", "cache-c:7999": "disconnected"}))

	var out bytes.Buffer
	if err := ringCmd(addr, []string{"report-q3", "amy"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out.String())
	}
	if lines[0] != "ring: 3 nodes, 2 replicas, 128 vnodes/node" {
		t.Errorf("header = %q", lines[0])
	}
	if f := strings.Fields(lines[3]); len(f) != 6 || f[0] != "cache-c:7999" || f[1] != "disconnected" || f[2] != "share" || f[4] != "entries" || f[5] != "1002" {
		t.Errorf("node row = %q", lines[3])
	}
	owners := ring.Owners(cluster.Key("report-q3", "amy"))
	if want := "owners(report-q3, amy): " + strings.Join(owners, ", "); lines[4] != want {
		t.Errorf("owner line = %q, want %q", lines[4], want)
	}

	// Without a doc argument the owner line is absent.
	out.Reset()
	if err := ringCmd(addr, nil, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "owners(") {
		t.Errorf("unexpected owner line:\n%s", out.String())
	}
}

func TestRingOfflinePlansWithoutAServer(t *testing.T) {
	var out bytes.Buffer
	err := ringCmd("", []string{"-nodes", "a:1, b:1,c:1,d:1", "-replicas", "3", "-vnodes", "64", "report-q3", "amy"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	ring := cluster.NewRing(3, 64)
	for _, n := range []string{"a:1", "b:1", "c:1", "d:1"} {
		ring.Add(n)
	}
	got := out.String()
	if !strings.HasPrefix(got, "ring: 4 nodes, 3 replicas, 64 vnodes/node\n") {
		t.Errorf("header:\n%s", got)
	}
	if want := "owners(report-q3, amy): " + strings.Join(ring.Owners(cluster.Key("report-q3", "amy")), ", ") + "\n"; !strings.HasSuffix(got, want) {
		t.Errorf("output:\n%s\nwant suffix %q", got, want)
	}
	if strings.Contains(got, "entries") || strings.Contains(got, "connected") {
		t.Errorf("offline rows must not claim live state:\n%s", got)
	}
	if n := strings.Count(got, "share"); n != 4 {
		t.Errorf("%d share rows, want 4:\n%s", n, got)
	}
}

func TestRingArgumentErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"no source":     nil,
		"empty members": {"-nodes", " , "},
		"unknown flag":  {"-bogus"},
		"extra args":    {"-nodes", "a,b", "doc", "user", "more"},
	} {
		if err := ringCmd("", args, &bytes.Buffer{}); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}
