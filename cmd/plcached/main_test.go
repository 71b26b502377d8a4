package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"placeless/internal/cluster"
	"placeless/internal/remote"
)

// TestWriteDocError pins the status each cache error answers with:
// outages are a 503 with a retry hint, a closed cache or wire client a
// 503 without one, and anything else is the document's own 404.
func TestWriteDocError(t *testing.T) {
	for _, tc := range []struct {
		err        error
		status     int
		retryAfter string
	}{
		{remote.ErrDegraded, http.StatusServiceUnavailable, "1"},
		{fmt.Errorf("%w (policy fail-fast)", remote.ErrDegraded), http.StatusServiceUnavailable, "1"},
		{cluster.ErrNoNodes, http.StatusServiceUnavailable, "1"},
		{fmt.Errorf("cluster: all 2 owners of d/u degraded: %w", remote.ErrDegraded), http.StatusServiceUnavailable, "1"},
		{remote.ErrClosed, http.StatusServiceUnavailable, ""},
		{fmt.Errorf("cluster: all 2 owners of d/u degraded: %w", remote.ErrClosed), http.StatusServiceUnavailable, ""},
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
