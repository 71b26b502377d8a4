package main

// metricDef is one row of BENCHMARK.json. exact marks a count that is
// a pure function of the seed, so two runs must agree on it to the
// digit.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	exact              bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a caller of the system sees, and what the driver
// bounds. Every one is nonzero on every workload and, over ten seeds on
// the sandbox, spread by well under its bound: ops_per_s by 0.04–0.14,
// peak_rss_mb by 0.01–0.04.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: higher, bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: lower, bound: 0.10},
}

// perLayer is the ledger, recorded unbounded. Its first eight rows are
// end-to-end in meaning. Three of them did not repeat within a tenth
// over ten seeds on the sandbox, so they are advisory: read_p50_ms and
// read_p90_ms on churn_mix sit on the slope between the sidecar's hit
// and miss latencies and move by 0.25–0.4 with the seed's hit ratio,
// and cpu_ms_per_kop moved by up to 0.19 with the host's load. The
// other five read 0 on the workloads they do not apply to, which a
// bounded metric may not.
var perLayer = []metricDef{
	{name: "read_p50_ms", unit: "ms", better: lower},
	{name: "read_p90_ms", unit: "ms", better: lower},
	{name: "cpu_ms_per_kop", unit: "ms", better: lower},
	{name: "write_p50_ms", unit: "ms", better: lower},
	{name: "failed_op_frac", unit: "ratio", better: lower, exact: true},
	{name: "recompute_runs_per_kread", unit: "count", better: lower},
	{name: "disk_amp", unit: "ratio", better: lower},
	{name: "recovery_s", unit: "s", better: lower},

	{name: "plcached.http_hit_self_us", unit: "us", better: lower},
	{name: "plcached.cpu_ms_per_kop", unit: "ms", better: lower},
	{name: "plcached.peak_rss_mb", unit: "MB", better: lower},
	{name: "plcached.http_5xx", unit: "count", better: lower},

	{name: "cluster.pick_ns", unit: "ns", better: lower},
	{name: "cluster.reads", unit: "count", better: higher, exact: true},
	{name: "cluster.writes", unit: "count", better: higher, exact: true},
	{name: "cluster.failovers", unit: "count", better: lower, exact: true},
	{name: "cluster.entries_skew", unit: "ratio", better: lower},

	{name: "remote.hit_ratio", unit: "ratio", better: higher},
	{name: "remote.hit_us", unit: "us", better: lower},
	{name: "remote.miss_self_us", unit: "us", better: lower},
	{name: "remote.rtt_mean_us", unit: "us", better: lower},
	{name: "remote.evictions", unit: "count", better: lower},
	{name: "remote.invalidations", unit: "count", better: lower},
	{name: "remote.coalesced", unit: "count", better: higher},
	{name: "remote.epoch_flushes", unit: "count", better: lower},
	{name: "remote.reconnects", unit: "count", better: lower},
	{name: "remote.degraded_errors", unit: "count", better: lower},
	{name: "remote.stale_reads", unit: "count", better: lower},

	{name: "server.rtt_hit_us", unit: "us", better: lower},
	{name: "server.alloc_bytes_per_read", unit: "B", better: lower},
	{name: "server.requests", unit: "count", better: lower},
	{name: "server.bytes_sent_per_op", unit: "B", better: lower},
	{name: "server.bytes_recv_per_op", unit: "B", better: lower},
	{name: "server.notifications", unit: "count", better: lower},
	{name: "server.frames_batched", unit: "count", better: higher},

	{name: "core.hit_ratio", unit: "ratio", better: higher},
	{name: "core.hit_us", unit: "us", better: lower},
	{name: "core.read_mean_us", unit: "us", better: lower},
	{name: "core.verdict.hit", unit: "count", better: higher},
	{name: "core.verdict.memo", unit: "count", better: higher},
	{name: "core.verdict.miss", unit: "count", better: lower},
	{name: "core.verdict.disk", unit: "count", better: higher},
	{name: "core.verdict.coalesced", unit: "count", better: higher},
	{name: "core.verdict.error", unit: "count", better: lower, exact: true},
	{name: "core.stage.shard_lookup_us", unit: "us", better: lower},
	{name: "core.stage.flight_wait_us", unit: "us", better: lower},
	{name: "core.stage.verify_us", unit: "us", better: lower},
	{name: "core.stage.bit_fetch_us", unit: "us", better: lower},
	{name: "core.stage.universal_us", unit: "us", better: lower},
	{name: "core.stage.personal_us", unit: "us", better: lower},
	{name: "core.stage_residual_frac", unit: "ratio", better: lower},
	{name: "core.evictions", unit: "count", better: lower},
	{name: "core.invalidations", unit: "count", better: lower},
	{name: "core.notifications", unit: "count", better: lower},
	{name: "core.universal_stage_runs", unit: "count", better: lower},
	{name: "core.prefix_segment_runs", unit: "count", better: lower},
	{name: "core.prefix_hits", unit: "count", better: higher},
	{name: "core.intermediate_hits", unit: "count", better: higher},
	{name: "core.prefix_installs", unit: "count", better: lower},
	{name: "core.prefix_install_skips", unit: "count", better: lower},
	{name: "core.segment_runs_saved_ratio", unit: "ratio", better: higher},

	{name: "docspace.staged_read_us", unit: "us", better: lower},
	{name: "docspace.write_us", unit: "us", better: lower},
	{name: "docspace.attach_us", unit: "us", better: lower},
	{name: "stream.pool_reuse_ratio", unit: "ratio", better: higher},
	{name: "sig.mb_per_s", unit: "MB/s", better: higher},

	{name: "store.demotions", unit: "count", better: lower},
	{name: "store.intermediate_demotions", unit: "count", better: lower},
	{name: "store.promotions", unit: "count", better: higher},
	{name: "store.intermediate_promotions", unit: "count", better: higher},
	{name: "store.promotion_rejects", unit: "count", better: lower},
	{name: "store.errors", unit: "count", better: lower, exact: true},
	{name: "store.bytes", unit: "B", better: lower},
	{name: "store.segments", unit: "count", better: lower},
	{name: "store.recovered_frac", unit: "ratio", better: higher},
	{name: "store.disk_write_bytes_per_kop", unit: "B", better: lower},
	{name: "store.open_s", unit: "s", better: lower},
	{name: "store.put_blob_us", unit: "us", better: lower},
	{name: "store.get_blob_us", unit: "us", better: lower},

	{name: "placelessd.cpu_ms_per_kop", unit: "ms", better: lower},
	{name: "placelessd.peak_rss_mb", unit: "MB", better: lower},
	{name: "bench.cpu_ms_per_kop", unit: "ms", better: lower},
	{name: "bench.slice_spread_frac", unit: "ratio", better: lower},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: lower},
	{name: "tail.read_p99_ms", unit: "ms", better: lower},
	{name: "tail.write_p99_ms", unit: "ms", better: lower},
	{name: "tail.read_pmax_ms", unit: "ms", better: lower},
	{name: "tail.read_pmax_q", unit: "ratio", better: higher},
}
