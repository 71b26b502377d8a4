package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"placeless/internal/cluster"
	"placeless/internal/server"
)

// oneNode builds a ring-of-one sidecar over a fresh origin and returns
// its endpoints with a wire client straight to the origin.
func oneNode(t *testing.T) (*http.ServeMux, *server.Client) {
	t.Helper()
	addr, _ := startOrigin(t)
	mux, closeAll, err := newSidecar(addr, 2, cluster.DefaultVNodes, 0, server.WithCallTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(closeAll)
	origin, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = origin.Close() })
	return mux, origin
}

// zeros is an endless request body of zero bytes that counts what is
// read of it.
type zeros struct{ n int64 }

func (z *zeros) Read(p []byte) (int, error) {
	clear(p)
	z.n += int64(len(p))
	return len(p), nil
}

// TestDocRequestErrors pins /doc's answers to requests it cannot
// serve, and that none of them costs the node its wire.
func TestDocRequestErrors(t *testing.T) {
	mux, _ := oneNode(t)
	for _, tc := range []struct {
		method, path string
		status       int
		allow        string
	}{
		{http.MethodGet, "/doc/", http.StatusBadRequest, ""},
		{http.MethodGet, "/doc/ghost?user=amy", http.StatusNotFound, ""},
		{http.MethodGet, "/doc/alpha?user=stranger", http.StatusNotFound, ""},
		{http.MethodDelete, "/doc/alpha?user=amy", http.StatusMethodNotAllowed, "GET, PUT, POST"},
	} {
		rec := serve(mux, tc.method, tc.path, "")
		if rec.Code != tc.status || rec.Header().Get("Allow") != tc.allow {
			t.Errorf("%s %s: %d %q, Allow %q; want %d, Allow %q", tc.method, tc.path,
				rec.Code, rec.Body.String(), rec.Header().Get("Allow"), tc.status, tc.allow)
		}
	}

	// A body past the wire's frame limit is refused, and is never
	// offered to the wire: before any of it is read when its length is
	// declared, and before it is read in full when it is not.
	for _, declared := range []bool{true, false} {
		body := &zeros{}
		req := httptest.NewRequest(http.MethodPut, "/doc/alpha?user=amy", body)
		req.ContentLength = -1
		if declared {
			req.ContentLength = server.MaxFramePayload + 1
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized PUT, length declared %v: %d %q, want 413", declared, rec.Code, rec.Body.String())
		}
		if declared && body.n != 0 {
			t.Errorf("oversized PUT with a declared length: %d body bytes read before the refusal, want none", body.n)
		}
		if body.n > server.MaxFramePayload+1 {
			t.Errorf("oversized PUT, length declared %v: %d body bytes read, past the limit", declared, body.n)
		}
	}
	if rec := serve(mux, http.MethodGet, "/doc/alpha?user=amy", ""); rec.Code != http.StatusOK || rec.Body.String() != "hello" {
		t.Errorf("read after the refusals: %d %q", rec.Code, rec.Body.String())
	}
}

// TestGetPersonalizedViews: one document, two users, and a personal
// property on one of them: each user reads their own view through the
// sidecar, and a repeated read is a sidecar hit.
func TestGetPersonalizedViews(t *testing.T) {
	mux, origin := oneNode(t)
	if err := origin.CreateDocument("memo", "amy", []byte("teh memo")); err != nil {
		t.Fatal(err)
	}
	if err := origin.AddReference("memo", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := origin.Attach("memo", "amy", true, "spell-correct"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ user, want string }{{"amy", "the memo"}, {"bob", "teh memo"}, {"amy", "the memo"}} {
		if rec := serve(mux, http.MethodGet, "/doc/memo?user="+tc.user, ""); rec.Code != http.StatusOK || rec.Body.String() != tc.want {
			t.Fatalf("%s: %d %q, want %q", tc.user, rec.Code, rec.Body.String(), tc.want)
		}
	}
	if m := scrape(t, mux); m["placeless_remote_misses_total"] != 2 || m["placeless_remote_hits_total"] != 1 {
		t.Fatalf("%d misses, %d hits; want 2 and 1", m["placeless_remote_misses_total"], m["placeless_remote_hits_total"])
	}
}

// TestPutWritesThrough: a PUT through the sidecar is stored at the
// origin before it is answered, and reads back through the sidecar.
func TestPutWritesThrough(t *testing.T) {
	mux, origin := oneNode(t)
	if rec := serve(mux, http.MethodGet, "/doc/alpha?user=amy", ""); rec.Code != http.StatusOK || rec.Body.String() != "hello" {
		t.Fatalf("warm read: %d %q", rec.Code, rec.Body.String())
	}
	if rec := serve(mux, http.MethodPut, "/doc/alpha?user=amy", "v2"); rec.Code != http.StatusNoContent {
		t.Fatalf("PUT: %d %q", rec.Code, rec.Body.String())
	}
	if data, _, err := origin.Read("alpha", "amy"); err != nil || string(data) != "v2" {
		t.Fatalf("origin holds %q (%v), want v2", data, err)
	}
	if rec := serve(mux, http.MethodGet, "/doc/alpha?user=amy", ""); rec.Code != http.StatusOK || rec.Body.String() != "v2" {
		t.Fatalf("read-back: %d %q, want v2", rec.Code, rec.Body.String())
	}
}

// TestInvalidationVisibleThroughSidecar: one user's PUT invalidates
// another user's cached view, whose next read is a fresh miss that
// returns the new bytes.
func TestInvalidationVisibleThroughSidecar(t *testing.T) {
	mux, _ := oneNode(t)
	if rec := serve(mux, http.MethodGet, "/doc/alpha?user=amy", ""); rec.Code != http.StatusOK || rec.Body.String() != "hello" {
		t.Fatalf("warm read: %d %q", rec.Code, rec.Body.String())
	}
	if rec := serve(mux, http.MethodPut, "/doc/alpha?user=bob", "v2 by bob"); rec.Code != http.StatusNoContent {
		t.Fatalf("PUT: %d %q", rec.Code, rec.Body.String())
	}
	before := scrape(t, mux)["placeless_remote_misses_total"]
	if rec := serve(mux, http.MethodGet, "/doc/alpha?user=amy", ""); rec.Code != http.StatusOK || rec.Body.String() != "v2 by bob" {
		t.Fatalf("amy after bob's write: %d %q, want %q", rec.Code, rec.Body.String(), "v2 by bob")
	}
	if after := scrape(t, mux)["placeless_remote_misses_total"]; after != before+1 {
		t.Fatalf("amy's read after the write: %d misses, want 1", after-before)
	}
}
