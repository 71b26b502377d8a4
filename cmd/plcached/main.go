// Command plcached runs a client-side Placeless document cache as a
// sidecar daemon: the paper's "cache on the machine where applications
// are run", exposed to local applications over HTTP. It dials every
// listed placelessd address with the full resilience configuration —
// call deadlines, automatic reconnection with backoff, and on every
// reconnect an epoch flush (every miss carries its key's subscription,
// so nothing is replayed) — and serves reads from its caches, failing
// fast while a server is unreachable.
//
// Usage:
//
//	plcached -server HOST:7999 [-addr :7998] [-capacity BYTES]
//	         [-call-timeout 10s] [-backoff-base 50ms] [-backoff-max 5s]
//
//	plcached -cluster HOST1:7999,HOST2:7999,... [-replicas 2] [-vnodes 128]
//	         [-addr :7998] [-capacity BYTES] [-call-timeout 10s]
//	         [-backoff-base 50ms] [-backoff-max 5s]
//
// Every sidecar runs one cache node per listed address and routes
// every request over a consistent-hash ring with -replicas-way
// placement: reads and writes go to the key's owners, failing over
// past degraded nodes; each node's own connection carries its own
// subscriptions, so invalidations fan out to every replica. -server
// ADDR is the one-address spelling of -cluster ADDR: a ring of one.
// See docs/CLUSTER.md for ring semantics and operating procedures.
//
// Endpoints:
//
//	GET /doc/<id>?user=U     read a document view (503 while degraded)
//	PUT /doc/<id>?user=U     write document content through the wire
//	GET /status              fleet counters and per-node state (JSON)
//	GET /ring                ring ownership + per-node state
//	                         (add ?doc=D&user=U for one key's owners)
//	GET /metrics             Prometheus text exposition
//	GET /debug/traces        recent per-read traces (JSON)
//	GET /debug/pprof/        standard pprof handlers
//
// While the server is unreachable, reads answer 503 Service Unavailable
// with a Retry-After hint: no cached byte is served without the push
// stream that vouches for it. A read only answers 503 when every owner
// in the key's replica set is degraded.
// See DESIGN.md §9/§13 and docs/OPERATIONS.md for the failure model and
// the operator runbooks.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"placeless/internal/cluster"
	"placeless/internal/core"
	"placeless/internal/obs"
	"placeless/internal/remote"
	"placeless/internal/server"
	"placeless/internal/stream"
)

func main() {
	serverAddr := flag.String("server", "", "placelessd TCP address to dial: a ring of one node, the same as -cluster ADDR")
	clusterAddrs := flag.String("cluster", "", "comma-separated placelessd addresses: one cache node per address on a consistent-hash ring (mutually exclusive with -server)")
	replicas := flag.Int("replicas", 2, "owner-set size per key")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per ring member")
	addr := flag.String("addr", ":7998", "HTTP listen address for the data plane and observability")
	capacity := flag.Int64("capacity", 0, "cache capacity in bytes, per node (0 = unlimited)")
	callTimeout := flag.Duration("call-timeout", 10*time.Second, "per-call deadline on the wire (0 = none)")
	backoffBase := flag.Duration("backoff-base", 50*time.Millisecond, "initial reconnect backoff")
	backoffMax := flag.Duration("backoff-max", 5*time.Second, "reconnect backoff ceiling")
	flag.Parse()
	if (*serverAddr == "") == (*clusterAddrs == "") || strings.Contains(*serverAddr, ",") {
		fmt.Fprintln(os.Stderr, "plcached: exactly one of -server ADDR (one address) or -cluster A,B,... is required")
		flag.Usage()
		os.Exit(2)
	}

	addrs := *serverAddr + *clusterAddrs // exactly one is set
	mux, closeAll, err := newSidecar(addrs, *replicas, *vnodes, *capacity,
		server.WithCallTimeout(*callTimeout), server.WithReconnect(*backoffBase, *backoffMax))
	if err != nil {
		log.Fatalf("plcached: %v", err)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "plcached: shutting down")
		closeAll()
		os.Exit(0)
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("plcached: http: %v", err)
	}
	fmt.Printf("plcached: caching %s on http://%s\n", addrs, *addr)
	if err := http.Serve(holdListener{ln}, mux); err != nil {
		log.Fatalf("plcached: http: %v", err)
	}
}

// newSidecar dials every address of the comma-separated list and
// routes one consistent-hash ring over a remote cache per address, all
// counted on one Observer and keeping their bytes in one blob store, so
// a document's head is resident once however many nodes hold its
// views. It returns plcached's endpoints and the
// func that closes every cache and its wire. A dial that fails fails
// the sidecar.
func newSidecar(list string, replicas, vnodes int, capacity int64, dial ...server.DialOption) (*http.ServeMux, func(), error) {
	o := obs.NewObserver()
	blobs := core.NewBlobStore()
	cl := cluster.New(cluster.Options{Replicas: replicas, VNodes: vnodes, Observer: o})
	var nodes []*remote.Cache
	var clients []*server.Client
	closeAll := func() {
		for i, rc := range nodes {
			rc.Close()
			_ = clients[i].Close()
		}
	}
	seen := map[string]int{}
	for _, target := range strings.Split(list, ",") {
		target = strings.TrimSpace(target)
		if target == "" {
			continue
		}
		// A repeated address (several daemons behind one DNS name, or
		// a test cluster on one host) gets a #i-suffixed ring name so
		// each connection is its own member.
		name := target
		if n := seen[target]; n > 0 {
			name = fmt.Sprintf("%s#%d", target, n)
		}
		seen[target]++
		client, err := server.Dial(target, dial...)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("dial %s: %w", target, err)
		}
		rc := remote.New(client, remote.Options{Capacity: capacity, Observer: o, Blobs: blobs})
		nodes, clients = append(nodes, rc), append(clients, client)
		if err := cl.AddNode(name, rc); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	if len(nodes) == 0 {
		return nil, nil, errors.New("no placelessd address given")
	}
	remote.RegisterMetrics(o, nodes...)

	mux := http.NewServeMux()
	o.Mount(mux)
	mux.HandleFunc("/doc/", docHandler(cl))
	// /status: the router's counters and the fleet's totals, then one
	// row per node with its state. bytes_stored is what capacity
	// charges the views, summed over the nodes; bytes_resident is what
	// the one blob store occupies: each head once, and a view that
	// shares its document's head only its tail.
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		st := cl.Stats()
		var reconnects, flushes, stored int64
		var entries int
		for _, rc := range nodes {
			ns := rc.Stats()
			reconnects += ns.Reconnects
			flushes += ns.EpochFlushes
			stored += ns.BytesStored
			entries += rc.Len()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]interface{}{
			"replicas":        cl.Replicas(),
			"vnodes":          cl.VNodes(),
			"nodes":           cl.Info(),
			"reads":           st.Reads,
			"writes":          st.Writes,
			"failovers":       st.Failovers,
			"degraded_errors": st.DegradedErrors,
			"rebalances":      st.Rebalances,
			"reconnects":      reconnects,
			"epoch_flushes":   flushes,
			"entries":         entries,
			"bytes_stored":    stored,
			"bytes_resident":  blobs.BytesResident(),
		})
	})
	mux.HandleFunc("/ring", func(w http.ResponseWriter, r *http.Request) {
		out := map[string]interface{}{
			"replicas": cl.Replicas(),
			"vnodes":   cl.VNodes(),
			"nodes":    cl.Info(),
		}
		if doc := r.URL.Query().Get("doc"); doc != "" {
			out["doc"] = doc
			out["user"] = r.URL.Query().Get("user")
			out["owners"] = cl.Owners(doc, r.URL.Query().Get("user"))
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	return mux, closeAll, nil
}

// docHandler serves GET /doc/<id>?user=U from dc and passes PUT and
// POST bodies to it as writes. The bytes a read returns are the
// cache's own, in its parts: the handler only sends them. A body over the wire's
// frame limit is refused with 413 before it is read in full, and
// before any of it is read when its Content-Length declares it.
func docHandler(dc cluster.Peer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/doc/")
		user := r.URL.Query().Get("user")
		if id == "" {
			http.Error(w, "missing document id", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			body, err := dc.ReadBody(id, user)
			if err != nil {
				writeDocError(w, err)
				return
			}
			if body.Len() > holdCap {
				// Past the hold, the head would leave at once and the
				// tail in a write of its own.
				body = stream.Body{Head: body.Bytes()}
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			// Without a length net/http sends any body over 2 KiB
			// chunked. With it, the header and the body's parts reach
			// the connection in a few writes (its 4 KiB buffer, then
			// the rest), which the held connection (holdListener) sends
			// as one: the response leaves in one write(2).
			w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
			_, _ = w.Write(body.Head)
			_, _ = w.Write(body.Tail)
		case http.MethodPut, http.MethodPost:
			if r.ContentLength > server.MaxFramePayload {
				http.Error(w, fmt.Sprintf("%d-byte body over the %d-byte frame limit", r.ContentLength, server.MaxFramePayload),
					http.StatusRequestEntityTooLarge)
				return
			}
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxFramePayload))
			if err != nil {
				status := http.StatusBadRequest
				var tooLarge *http.MaxBytesError
				if errors.As(err, &tooLarge) {
					status = http.StatusRequestEntityTooLarge
				}
				http.Error(w, err.Error(), status)
				return
			}
			if err := dc.Write(id, user, body); err != nil {
				writeDocError(w, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			w.Header().Set("Allow", "GET, PUT, POST")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	}
}

// writeDocError maps cache errors to HTTP statuses: degraded mode (a
// whole owner set's) is the load-shedding 503 (the client should retry
// after the reconnect); a closed cache or wire client is a 503 without
// a retry hint (the daemon is shutting down); a document the origin
// could not answer in one wire frame is a 502; a write too large for
// one is a 413; everything else is a document-level failure. The
// remote cache has already classified its wire's errors into these.
func writeDocError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, server.ErrAnswerTooLarge):
		http.Error(w, err.Error(), http.StatusBadGateway)
	case errors.Is(err, remote.ErrDegraded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, remote.ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, server.ErrTooLarge):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, err.Error(), http.StatusNotFound)
	}
}
