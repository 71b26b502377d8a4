// Package httpgw is an HTTP gateway onto a Placeless document space:
// it serves each user's personalized view of a document as a web
// resource, with the content cache in front of the middleware. It
// makes the paper's web-facing story concrete — the Placeless system
// subsumes per-user customization that the 1999 web did at origin
// servers ("my.yahoo.com") — and lets entirely off-the-shelf HTTP
// clients exercise the stack.
//
// Routes:
//
//	GET    /doc/{id}?user=U   the user's view of the document
//	PUT    /doc/{id}?user=U   replace content through the write path
//	GET    /stats             cache statistics (JSON)
//	GET    /docs?user=U       document ids visible to the user (JSON)
//	GET    /find?user=U&key=K[&value=V]  property-based search (JSON)
//
// EnableObservability additionally mounts /metrics (Prometheus text),
// /debug/traces (JSON read-trace ring) and /debug/pprof/ on the same
// mux.
//
// Responses carry X-Placeless-Cache: HIT|MISS (from the read's own
// entry metadata, so concurrent requests each get their own outcome)
// and X-Placeless-Cacheability headers. Under a memoizing cache, MISS
// responses add X-Placeless-Universal: MEMO|FULL — whether the
// universal transform stage was served from the intermediate store or
// executed in full.
package httpgw

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/sig"
)

// Gateway is an http.Handler over a document space and its cache.
type Gateway struct {
	space *docspace.Space
	cache *core.Cache
	mux   *http.ServeMux
}

// New builds a gateway. cache may be nil to serve uncached.
func New(space *docspace.Space, cache *core.Cache) *Gateway {
	g := &Gateway{space: space, cache: cache, mux: http.NewServeMux()}
	g.mux.HandleFunc("/doc/", g.handleDoc)
	g.mux.HandleFunc("/docs", g.handleList)
	g.mux.HandleFunc("/find", g.handleFind)
	g.mux.HandleFunc("/stats", g.handleStats)
	return g
}

// EnableObservability mounts o's endpoints — /metrics, /debug/traces,
// /debug/pprof/ — on the gateway's mux. Pass the same Observer the
// cache was built with so the scrape covers the cache's counters. Call
// at most once.
func (g *Gateway) EnableObservability(o *obs.Observer) {
	o.Mount(g.mux)
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// statusFor maps middleware errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, docspace.ErrNoDocument), errors.Is(err, docspace.ErrNoReference):
		return http.StatusNotFound
	case errors.Is(err, core.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadGateway
	}
}

// userOf extracts the mandatory user parameter.
func userOf(w http.ResponseWriter, r *http.Request) (string, bool) {
	user := r.URL.Query().Get("user")
	if user == "" {
		http.Error(w, "missing ?user= parameter", http.StatusBadRequest)
		return "", false
	}
	return user, true
}

func (g *Gateway) handleDoc(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/doc/")
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "bad document id", http.StatusBadRequest)
		return
	}
	user, ok := userOf(w, r)
	if !ok {
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		g.get(w, r, id, user)
	case http.MethodPut:
		g.put(w, r, id, user)
	default:
		w.Header().Set("Allow", "GET, HEAD, PUT")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (g *Gateway) get(w http.ResponseWriter, r *http.Request, id, user string) {
	var data []byte
	var err error
	var sg sig.Signature
	outcome := "BYPASS"
	universal := ""
	if g.cache != nil {
		// The hit/miss outcome comes from the read's own EntryInfo, not
		// from a before/after diff of the global counters — the counter
		// diff was only correct when requests were serialized, and the
		// gateway serves concurrent requests against the sharded cache.
		var info core.EntryInfo
		data, info, err = g.cache.ReadWithInfo(id, user)
		sg = info.Signature
		if err == nil {
			if info.Hit {
				outcome = "HIT"
			} else {
				outcome = "MISS"
				if info.IntermediateHit {
					universal = "MEMO"
				} else if g.cache.Memoizing() {
					universal = "FULL"
				}
			}
		}
	} else {
		data, _, err = g.space.ReadDocument(id, user)
	}
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	// The content signature doubles as a strong ETag, extending the
	// Placeless signature-sharing idea to downstream HTTP caches:
	// identical transformed content revalidates with 304 regardless
	// of which user produced it. The cache took it already; only a
	// body it did not sign is hashed here.
	if sg.IsZero() {
		sg = sig.Of(data)
	}
	etag := `"` + sg.String() + `"`
	w.Header().Set("ETag", etag)
	if universal != "" {
		w.Header().Set("X-Placeless-Universal", universal)
	}
	if match := r.Header.Get("If-None-Match"); match != "" && match == etag {
		w.Header().Set("X-Placeless-Cache", outcome)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Placeless-Cache", outcome)
	w.Header().Set("Content-Length", fmt.Sprint(len(data)))
	if r.Method == http.MethodHead {
		return
	}
	w.Write(data)
}

func (g *Gateway) put(w http.ResponseWriter, r *http.Request, id, user string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if g.cache != nil {
		err = g.cache.Write(id, user, body)
	} else {
		err = g.space.WriteDocument(id, user, body)
	}
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	user, ok := userOf(w, r)
	if !ok {
		return
	}
	var visible []string
	for _, doc := range g.space.Documents() {
		if _, err := g.space.ResolveOwner(doc, user); err == nil {
			visible = append(visible, doc)
		}
	}
	if visible == nil {
		visible = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(visible)
}

// findMatch is the JSON shape of one /find hit.
type findMatch struct {
	Doc   string `json:"doc"`
	Value string `json:"value,omitempty"`
	Level string `json:"level"`
}

func (g *Gateway) handleFind(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	user, ok := userOf(w, r)
	if !ok {
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing ?key= parameter", http.StatusBadRequest)
		return
	}
	matches := []findMatch{}
	for _, m := range g.space.FindByStatic(user, key, r.URL.Query().Get("value")) {
		matches = append(matches, findMatch{Doc: m.Doc, Value: m.Value, Level: m.Level.String()})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(matches)
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if g.cache == nil {
		io.WriteString(w, "{}\n")
		return
	}
	json.NewEncoder(w).Encode(g.cache.Stats())
}
