// Package obs is the observability layer for the Placeless read/write
// path: a metric registry with Prometheus text exposition, low-overhead
// per-stage latency histograms, and a ring buffer of per-read trace
// records.
//
// The caching design lives or dies on knowing why a read was a hit, a
// miss, or a recompute — which of the paper's four invalidation causes
// fired, which stage of the transform chain cost the time. This
// package gives every subsystem one place to answer that:
//
//   - internal/core registers its counters/gauges under stable
//     placeless_cache_* names and, per read, records stage timings and
//     a ReadTrace (verdict, miss cause, per-stage latency).
//   - internal/remote records the wire round trip and its
//     placeless_remote_* counters.
//   - notifier-driven invalidations count under
//     placeless_invalidation_causes_total{cause=...}, labelled with the
//     paper's four causes.
//   - cmd/placelessd and cmd/plcached mount the /metrics,
//     /debug/traces and /debug/pprof endpoints via Observer.Mount.
//
// Overhead budget: with an Observer attached, a read pays a handful of
// time.Now calls, two atomic adds per stage histogram, and one
// uncontended mutex lock for the trace ring — under 5% on the parallel
// hit benchmark (BenchmarkParallelHitThroughput/observed against
// /sharded). With a nil Observer the instrumented paths skip all of it.
package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Stage names for placeless_read_stage_duration_seconds{stage=...}.
// The vocabulary is closed: every instrumented span on the read path
// has exactly one name here.
const (
	// StageShardLookup is the sharded (doc, user) index lookup.
	StageShardLookup = "shard_lookup"
	// StageFlightWait is time blocked on another goroutine's
	// single-flight read-path execution.
	StageFlightWait = "flight_wait"
	// StageVerify is hit-time verifier execution.
	StageVerify = "verify"
	// StageDiskPromote is a miss's attempt to promote its durable
	// entry: the live content-key probe, the blob read and the
	// install, whether or not it ends in a disk verdict.
	StageDiskPromote = "disk_promote"
	// StageBitFetch is raw source retrieval (bit-provider open plus
	// drain) on a miss.
	StageBitFetch = "bit_fetch"
	// StageUniversal is the universal property stage on a miss (memo
	// lookup on an intermediate hit, full execution otherwise).
	StageUniversal = "universal"
	// StagePersonal is the personal property suffix on a miss.
	StagePersonal = "personal"
	// StageRemoteRTT is the wire round trip of a remote-cache miss.
	StageRemoteRTT = "remote_rtt"
)

// stageNames returns every stage name, in read-path order.
func stageNames() []string {
	return []string{StageShardLookup, StageFlightWait, StageVerify,
		StageDiskPromote, StageBitFetch, StageUniversal, StagePersonal, StageRemoteRTT}
}

// verdicts returns every read verdict.
func verdicts() []string {
	return []string{VerdictHit, VerdictMiss, VerdictMemo, VerdictDisk, VerdictCoalesced, VerdictError}
}

// Causes returns the paper's four invalidation causes plus the
// degraded-mode cause (the label set of
// placeless_invalidation_causes_total).
func Causes() []string {
	return []string{CauseContentWrite, CauseProperty, CauseReorder, CauseExternal, CauseDegraded}
}

// Observer bundles the registry, the read-path histograms, the
// invalidation-cause counters, and the trace ring. One Observer serves
// one process: subsystems register their metric families on its
// registry at wiring time (duplicate names panic), then record into it
// from the hot path.
type Observer struct {
	reg      *Registry
	total    *Histogram
	stages   *HistogramVec
	verdicts *CounterVec
	causes   *CounterVec
	ring     *TraceRing
}

// NewObserver returns an Observer with the read-path families
// registered: placeless_read_duration_seconds,
// placeless_read_stage_duration_seconds{stage},
// placeless_reads_total{verdict},
// placeless_invalidation_causes_total{cause},
// and placeless_traces_recorded_total.
func NewObserver() *Observer {
	reg := NewRegistry()
	o := &Observer{
		reg:  reg,
		ring: NewTraceRing(0),
	}
	o.total = reg.Histogram("placeless_read_duration_seconds",
		"End-to-end latency of cache reads.")
	o.stages = reg.HistogramVec("placeless_read_stage_duration_seconds",
		"Read-path latency by stage.", "stage", stageNames()...)
	o.verdicts = reg.CounterVec("placeless_reads_total",
		"Reads by outcome verdict.", "verdict", verdicts()...)
	o.causes = reg.CounterVec("placeless_invalidation_causes_total",
		"Notifier-driven invalidations by paper cause.", "cause", Causes()...)
	reg.Counter("placeless_traces_recorded_total",
		"Read traces recorded into the ring buffer.",
		func() int64 { return int64(o.ring.Total()) })
	return o
}

// Registry returns the observer's metric registry, for subsystems
// registering their own families.
func (o *Observer) Registry() *Registry { return o.reg }

// Ring returns the read-trace ring buffer.
func (o *Observer) Ring() *TraceRing { return o.ring }

// ObserveStage records one stage duration directly (used for spans
// recorded outside a full ReadTrace, e.g. the remote round trip).
func (o *Observer) ObserveStage(stage string, d time.Duration) {
	o.stages.Observe(stage, int64(d))
}

// StageHistogram returns the histogram behind one stage, or nil for
// an unknown stage name.
func (o *Observer) StageHistogram(stage string) *Histogram { return o.stages.With(stage) }

// ReadHistogram returns the end-to-end read latency histogram.
func (o *Observer) ReadHistogram() *Histogram { return o.total }

// VerdictCounts returns a snapshot of placeless_reads_total.
func (o *Observer) VerdictCounts() map[string]int64 { return o.verdicts.Values() }

// CauseCounts returns a snapshot of
// placeless_invalidation_causes_total.
func (o *Observer) CauseCounts() map[string]int64 { return o.causes.Values() }

// Invalidation counts one notifier-driven invalidation under its
// paper cause.
func (o *Observer) Invalidation(cause string) { o.causes.Inc(cause) }

// Invalidations counts n invalidations under one cause (used by bulk
// events such as the remote cache's reconnect epoch flush).
func (o *Observer) Invalidations(cause string, n int64) {
	if n > 0 {
		o.causes.Add(cause, n)
	}
}

// ObserveRead records a completed read: verdict counter, end-to-end
// histogram, each non-zero stage timing, and the trace ring.
func (o *Observer) ObserveRead(t ReadTrace) {
	o.verdicts.Inc(t.Verdict)
	o.total.Observe(t.Total)
	if t.Lookup > 0 {
		o.stages.Observe(StageShardLookup, int64(t.Lookup))
	}
	if t.FlightWait > 0 {
		o.stages.Observe(StageFlightWait, int64(t.FlightWait))
	}
	if t.Verify > 0 {
		o.stages.Observe(StageVerify, int64(t.Verify))
	}
	if t.DiskPromote > 0 {
		o.stages.Observe(StageDiskPromote, int64(t.DiskPromote))
	}
	if t.BitFetch > 0 {
		o.stages.Observe(StageBitFetch, int64(t.BitFetch))
	}
	if t.Universal > 0 {
		o.stages.Observe(StageUniversal, int64(t.Universal))
	}
	if t.Personal > 0 {
		o.stages.Observe(StagePersonal, int64(t.Personal))
	}
	if t.Remote > 0 {
		o.stages.Observe(StageRemoteRTT, int64(t.Remote))
	}
	o.ring.Add(t)
}

// TraceDump is the JSON shape of /debug/traces.
type TraceDump struct {
	// Total is how many traces were ever recorded.
	Total uint64 `json:"total"`
	// Traces are the most recent records, newest first.
	Traces []ReadTrace `json:"traces"`
}

// MetricsHandler serves the registry in Prometheus text exposition
// format.
func (o *Observer) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = o.reg.WriteText(w)
	})
}

// TracesHandler serves the trace ring as JSON; ?n= bounds how many
// records return (default 50, newest first).
func (o *Observer) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 50
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "bad ?n= parameter", http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(TraceDump{Total: o.ring.Total(), Traces: o.ring.Snapshot(n)})
	})
}

// Mount registers the observability endpoints on mux: /metrics
// (Prometheus text), /debug/traces (JSON ring dump), and the standard
// net/http/pprof handlers under /debug/pprof/. Call once per mux.
func (o *Observer) Mount(mux *http.ServeMux) {
	mux.Handle("/metrics", o.MetricsHandler())
	mux.Handle("/debug/traces", o.TracesHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
