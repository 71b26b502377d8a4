package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"placeless/internal/remote"
	"placeless/internal/server"
)

// TestWriteDocError pins the status each cache error answers with:
// outages are a 503 with a retry hint, a closed cache or wire client a
// 503 without one, a document the origin could not answer in one wire
// frame a 502, a write too large for a frame a 413, and anything else
// is the document's own 404. The body is the error's text, once.
func TestWriteDocError(t *testing.T) {
	for _, tc := range []struct {
		err        error
		status     int
		retryAfter string
	}{
		{remote.ErrDegraded, http.StatusServiceUnavailable, "1"},
		{fmt.Errorf("%w (down since 2026-01-02T03:04:05Z)", remote.ErrDegraded), http.StatusServiceUnavailable, "1"},
		{fmt.Errorf("cluster: all 2 owners of d/u degraded: %w", remote.ErrDegraded), http.StatusServiceUnavailable, "1"},
		{remote.ErrClosed, http.StatusServiceUnavailable, ""},
		{fmt.Errorf("cluster: all 2 owners of d/u degraded: %w", remote.ErrClosed), http.StatusServiceUnavailable, ""},
		{fmt.Errorf("%w: 67108897-byte payload, limit 67108864", server.ErrTooLarge), http.StatusRequestEntityTooLarge, ""},
		{fmt.Errorf("%w: 67108898-byte payload, limit 67108864", server.ErrAnswerTooLarge), http.StatusBadGateway, ""},
		{errors.New("docspace: no document \"d\""), http.StatusNotFound, ""},
	} {
		rec := httptest.NewRecorder()
		writeDocError(rec, tc.err)
		if rec.Code != tc.status || rec.Header().Get("Retry-After") != tc.retryAfter {
			t.Errorf("%v: status %d, Retry-After %q; want %d, %q",
				tc.err, rec.Code, rec.Header().Get("Retry-After"), tc.status, tc.retryAfter)
		}
		if want := tc.err.Error() + "\n"; rec.Body.String() != want {
			t.Errorf("%v: body %q, want %q", tc.err, rec.Body.String(), want)
		}
	}
}
