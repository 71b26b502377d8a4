// Command plcached runs a client-side Placeless document cache as a
// sidecar daemon: the paper's "cache on the machine where applications
// are run", exposed to local applications over HTTP. It dials a
// placelessd server with the full resilience configuration — call
// deadlines, automatic reconnection with backoff, and on every
// reconnect an epoch flush (every miss carries its key's subscription,
// so nothing is replayed) —
// and serves reads from its cache, falling into an explicit degraded
// mode (fail-fast or bounded serve-stale) while the server is
// unreachable.
//
// Usage:
//
//	plcached -server HOST:7999 [-addr :7998] [-capacity BYTES]
//	         [-policy fail-fast|serve-stale] [-stale-ttl 5m]
//	         [-call-timeout 10s] [-backoff-base 50ms] [-backoff-max 5s]
//
//	plcached -cluster HOST1:7999,HOST2:7999,... [-replicas 2] [-vnodes 128]
//	         [-addr :7998] [-capacity BYTES] [-call-timeout 10s]
//	         [-backoff-base 50ms] [-backoff-max 5s]
//
// With -cluster the daemon runs one cache node per listed address and
// routes every request over a consistent-hash ring with -replicas-way
// placement: reads and writes go to the key's owners, failing over
// past degraded nodes; each node's own connection carries its own
// subscriptions, so invalidations fan out to every replica. See
// docs/CLUSTER.md for ring semantics and operating procedures.
//
// Endpoints:
//
//	GET /doc/<id>?user=U     read a document view (503 while degraded)
//	PUT /doc/<id>?user=U     write document content through the wire
//	GET /status              connection state, epoch, counters (JSON)
//	GET /ring                cluster mode: ring ownership + per-node state
//	                         (add ?doc=D&user=U for one key's owners)
//	GET /metrics             Prometheus text exposition
//	GET /debug/traces        recent per-read traces (JSON)
//	GET /debug/pprof/        standard pprof handlers
//
// While the server is unreachable, reads answer 503 Service Unavailable
// with a Retry-After hint (fail-fast), or keep serving cached content
// inside the staleness bound (serve-stale). In cluster mode a read only
// answers 503 when every owner in the key's replica set is degraded.
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
	"placeless/internal/obs"
	"placeless/internal/remote"
	"placeless/internal/server"
)

// docCache is the data-plane surface the HTTP handlers need; both
// *remote.Cache (single-server mode) and *cluster.Cache (cluster mode)
// implement it. The bytes Read returns are the cache's own: the
// handlers only send them.
type docCache interface {
	Read(doc, user string) ([]byte, error)
	Write(doc, user string, data []byte) error
}

func main() {
	serverAddr := flag.String("server", "", "placelessd TCP address to dial (single-node mode)")
	clusterAddrs := flag.String("cluster", "", "comma-separated placelessd addresses: run a consistent-hash cluster with one cache node per address (mutually exclusive with -server)")
	replicas := flag.Int("replicas", 2, "cluster mode: owner-set size per key")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "cluster mode: virtual nodes per ring member")
	addr := flag.String("addr", ":7998", "HTTP listen address for the data plane and observability")
	capacity := flag.Int64("capacity", 0, "cache capacity in bytes, per node in cluster mode (0 = unlimited)")
	policy := flag.String("policy", "fail-fast", "degraded-mode policy: fail-fast or serve-stale (single-node mode; cluster nodes fail fast and the router fails over)")
	staleTTL := flag.Duration("stale-ttl", 5*time.Minute, "serve-stale staleness bound, measured from disconnect (0 = unbounded)")
	callTimeout := flag.Duration("call-timeout", 10*time.Second, "per-call deadline on the wire (0 = none)")
	backoffBase := flag.Duration("backoff-base", 50*time.Millisecond, "initial reconnect backoff")
	backoffMax := flag.Duration("backoff-max", 5*time.Second, "reconnect backoff ceiling")
	flag.Parse()
	if (*serverAddr == "") == (*clusterAddrs == "") {
		fmt.Fprintln(os.Stderr, "plcached: exactly one of -server or -cluster is required")
		flag.Usage()
		os.Exit(2)
	}

	var degraded remote.DegradedPolicy
	switch *policy {
	case "fail-fast":
		degraded = remote.FailFast
	case "serve-stale":
		degraded = remote.ServeStale
	default:
		log.Fatalf("plcached: unknown -policy %q (fail-fast or serve-stale)", *policy)
	}

	observer := obs.NewObserver()
	dial := func(target string) *server.Client {
		client, err := server.Dial(target,
			server.WithCallTimeout(*callTimeout),
			server.WithReconnect(*backoffBase, *backoffMax))
		if err != nil {
			log.Fatalf("plcached: dial %s: %v", target, err)
		}
		return client
	}

	mux := http.NewServeMux()
	observer.Mount(mux)

	var dc docCache
	var closers []func()
	var banner string

	if *clusterAddrs != "" {
		cl := cluster.New(cluster.Options{
			Replicas: *replicas,
			VNodes:   *vnodes,
			Observer: observer,
		})
		seen := map[string]int{}
		for _, target := range strings.Split(*clusterAddrs, ",") {
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
			client := dial(target)
			// Per-node caches do not register metrics: the families are
			// process-global, and the cluster's own placeless_cluster_*
			// set is the per-fleet view (docs/METRICS.md).
			rc := remote.New(client, remote.Options{
				Capacity:       *capacity,
				DegradedPolicy: remote.FailFast,
			})
			closers = append(closers, func() { rc.Close(); _ = client.Close() })
			if err := cl.AddNode(name, rc); err != nil {
				log.Fatalf("plcached: %v", err)
			}
		}
		if len(cl.Nodes()) == 0 {
			log.Fatal("plcached: -cluster lists no addresses")
		}
		dc = cl
		banner = fmt.Sprintf("plcached: clustering %d nodes on http://%s (replicas %d)", len(cl.Nodes()), *addr, cl.Replicas())

		mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
			st := cl.Stats()
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]interface{}{
				"mode":            "cluster",
				"replicas":        cl.Replicas(),
				"vnodes":          cl.VNodes(),
				"nodes":           cl.Info(),
				"reads":           st.Reads,
				"writes":          st.Writes,
				"failovers":       st.Failovers,
				"degraded_errors": st.DegradedErrors,
				"rebalances":      st.Rebalances,
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
	} else {
		client := dial(*serverAddr)
		cache := remote.New(client, remote.Options{
			Capacity:       *capacity,
			Observer:       observer,
			DegradedPolicy: degraded,
			StaleTTL:       *staleTTL,
		})
		closers = append(closers, func() { cache.Close(); _ = client.Close() })
		dc = cache
		banner = fmt.Sprintf("plcached: caching %s on http://%s (policy %s)", *serverAddr, *addr, degraded)

		mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
			st := cache.Stats()
			var down string
			if t := client.DownSince(); !t.IsZero() {
				down = t.Format(time.RFC3339)
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]interface{}{
				"server":          *serverAddr,
				"state":           client.State().String(),
				"epoch":           client.Epoch(),
				"reconnects":      st.Reconnects,
				"epoch_flushes":   st.EpochFlushes,
				"stale_served":    st.StaleServed,
				"degraded_errors": st.DegradedErrors,
				"degraded_policy": degraded.String(),
				"down_since":      down,
				"entries":         cache.Len(),
			})
		})
	}

	mux.HandleFunc("/doc/", docHandler(dc))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "plcached: shutting down")
		for _, c := range closers {
			c()
		}
		os.Exit(0)
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("plcached: http: %v", err)
	}
	fmt.Println(banner)
	if err := http.Serve(holdListener{ln}, mux); err != nil {
		log.Fatalf("plcached: http: %v", err)
	}
}

// docHandler serves GET /doc/<id>?user=U from dc and passes PUT and
// POST bodies to it as writes.
func docHandler(dc docCache) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/doc/")
		user := r.URL.Query().Get("user")
		if id == "" {
			http.Error(w, "missing document id", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			data, err := dc.Read(id, user)
			if err != nil {
				writeDocError(w, err)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			// Without a length net/http sends any body over 2 KiB
			// chunked. With it, the header and the body reach the
			// connection in at most two writes (its 4 KiB buffer, then
			// the rest), which the held connection (holdListener) sends
			// as one: the response leaves in one write(2).
			w.Header().Set("Content-Length", strconv.Itoa(len(data)))
			_, _ = w.Write(data)
		case http.MethodPut, http.MethodPost:
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := dc.Write(id, user, body); err != nil {
				writeDocError(w, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	}
}

// writeDocError maps cache errors to HTTP statuses: degraded mode (one
// node's, or — in cluster mode — a whole owner set's) is the
// load-shedding 503 (the client should retry after the reconnect); a
// closed cache or wire client is a 503 without a retry hint (the daemon
// is shutting down); everything else is a document-level failure. The
// remote cache has already classified its wire's errors into these.
func writeDocError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, remote.ErrDegraded), errors.Is(err, cluster.ErrNoNodes):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, remote.ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusNotFound)
	}
}
