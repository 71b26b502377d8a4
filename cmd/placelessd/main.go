// Command placelessd runs a Placeless Documents server: a document
// space exposed over TCP, backed by a directory on the local file
// system (or an in-memory store), with the standard active-property
// library available for remote attachment.
//
// Usage:
//
//	placelessd [-addr :7999] [-root DIR] [-journal FILE] [-cache BYTES] [-memoize] [-store DIR] [-http ADDR]
//
// With -root, documents created through the server are stored as
// files under DIR, and out-of-band edits to those files are caught by
// mtime verifiers exactly as the paper describes for file-system
// repositories. Without -root, an in-memory repository is used instead.
//
// With -cache, reads are served through a server-side content cache of
// the given byte capacity (the paper's server-co-located placement);
// -memoize additionally memoizes read-path prefixes across users.
//
// With -store, the cache is backed by a durable content-addressed disk
// tier under DIR: cached results are written behind to append-only
// segment files and revalidated against the live property graph on the
// first miss after a restart, so a warm working set survives process
// death (requires -cache; see docs/OPERATIONS.md for the recovery
// runbook).
//
// With -http, an observability endpoint is served on ADDR: /metrics
// (Prometheus text exposition), /status (JSON: store recovery and
// cache counters), /debug/traces (recent per-read traces as JSON) and
// /debug/pprof/. See docs/OPERATIONS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/simnet"
	"placeless/internal/store"
)

func main() {
	addr := flag.String("addr", ":7999", "TCP listen address")
	root := flag.String("root", "", "directory backing document content (default: in-memory)")
	journalPath := flag.String("journal", "", "configuration journal file; replayed at startup, appended while running")
	cacheBytes := flag.Int64("cache", 0, "server-side content cache capacity in bytes (0 = no cache)")
	memoize := flag.Bool("memoize", false, "memoize read-path prefix cuts across users (requires -cache)")
	storeDir := flag.String("store", "", "durable content-addressed disk tier directory (requires -cache)")
	httpAddr := flag.String("http", "", "HTTP observability address serving /metrics, /debug/traces and /debug/pprof (empty = disabled)")
	flag.Parse()

	clk := clock.Real{}
	fast := simnet.NewPath("local", 1) // real deployments: no simulated latency

	var backing repo.Repository = repo.NewMem("mem", clk, fast)
	if *root != "" {
		if err := os.MkdirAll(*root, 0o755); err != nil {
			log.Fatalf("placelessd: create root: %v", err)
		}
		fsRepo, err := repo.NewFS("fs", clk, fast, *root)
		if err != nil {
			log.Fatalf("placelessd: open root: %v", err)
		}
		backing = fsRepo
	}

	archive := repo.NewDMS("dms", clk, simnet.NewPath("local", 2))
	space := docspace.New(clk, archive)

	var observer *obs.Observer
	if *httpAddr != "" {
		observer = obs.NewObserver()
	}

	var diskTier *store.Store
	var recovery store.Recovery
	var cache *core.Cache
	var srv *server.Server
	if *cacheBytes > 0 {
		if *storeDir != "" {
			var err error
			diskTier, recovery, err = store.Open(*storeDir, store.Options{})
			if err != nil {
				log.Fatalf("placelessd: open store: %v", err)
			}
			defer diskTier.Close()
			fmt.Printf("placelessd: disk tier %s: recovered %d blobs, %d entries, %d intermediates (%d stale, %d orphaned dropped; %d bytes lost to torn tails)\n",
				*storeDir, recovery.Blobs, recovery.Entries, recovery.Intermediates,
				recovery.DroppedStale, recovery.DroppedNoBlob, recovery.LostBytes)
		}
		cache = core.New(space, core.Options{
			Name:     "placelessd",
			Capacity: *cacheBytes,
			Memoize:  *memoize,
			Observer: observer,
			Store:    diskTier,
		})
		defer cache.Close()
		srv = server.NewCached(space, backing, cache)
	} else {
		if *memoize {
			log.Fatal("placelessd: -memoize requires -cache")
		}
		if *storeDir != "" {
			log.Fatal("placelessd: -store requires -cache")
		}
		srv = server.New(space, backing)
	}

	if observer != nil {
		reg := observer.Registry()
		reg.Counter("placeless_server_requests_total",
			"Wire requests handled by the TCP server.",
			func() int64 { r, _, _ := srv.Counters(); return r })
		reg.Counter("placeless_server_notifications_total",
			"Invalidations pushed to subscribed remote clients.",
			func() int64 { _, n, _ := srv.Counters(); return n })
		reg.Gauge("placeless_server_connections",
			"Currently open client connections.",
			func() int64 { _, _, c := srv.Counters(); return c })
		reg.Counter("placeless_server_bytes_sent_total",
			"Bytes written to client sockets.",
			func() int64 { s, _ := srv.WireBytes(); return s })
		reg.Counter("placeless_server_bytes_received_total",
			"Bytes read from client sockets.",
			func() int64 { _, r := srv.WireBytes(); return r })
		srv.SetWriteHistogram(reg.Histogram("placeless_write_duration_seconds",
			"Latency of a document write inside the origin: write-path properties, repository store and notifier dispatch."))
		mux := http.NewServeMux()
		observer.Mount(mux)
		// /status: operator-facing JSON snapshot — boot-time store
		// recovery, live store footprint, and cache counters. Scraped
		// by the recovery runbook (docs/OPERATIONS.md) to confirm a
		// restart actually recovered the working set.
		mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
			type status struct {
				Cache    *core.Stats     `json:"cache,omitempty"`
				Store    *store.Stats    `json:"store,omitempty"`
				Recovery *store.Recovery `json:"recovery,omitempty"`
			}
			var s status
			if cache != nil {
				cs := cache.Stats()
				s.Cache = &cs
			}
			if diskTier != nil {
				ss := diskTier.Stats()
				s.Store = &ss
				s.Recovery = &recovery
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(s)
		})
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				log.Fatalf("placelessd: http: %v", err)
			}
		}()
		fmt.Printf("placelessd: observability on http://%s/metrics\n", *httpAddr)
	}

	// Durable configuration: replay a prior journal, then append new
	// configuration operations to it. Combined with -root, a restart
	// loses nothing: content lives in the file system, the property
	// graph in the journal.
	if *journalPath != "" {
		applied, torn, err := srv.OpenJournal(*journalPath)
		if err != nil {
			log.Fatalf("placelessd: %v", err)
		}
		fmt.Printf("placelessd: replayed %d configuration entries from %s, %d torn bytes dropped\n", applied, *journalPath, torn)
	}

	// Graceful shutdown on interrupt or SIGTERM (kill, systemd stop,
	// container stop): close the listener and the connections, wait
	// for the requests in flight and the warms after acknowledged
	// writes, and unsubscribe every remote notifier before exiting; main's
	// deferred closers then run.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	closed := make(chan struct{})
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "placelessd: shutting down")
		srv.Close()
		close(closed)
	}()

	fmt.Printf("placelessd: serving document space on %s (backing: %s)\n", *addr, backing.Name())
	fmt.Printf("placelessd: standard properties: %v\n", server.KnownPropertySpecs())
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatalf("placelessd: %v", err)
	}
	// Serve returns as soon as Close has shut the listener; Close itself
	// returns only when the connections' handlers have.
	<-closed
}
