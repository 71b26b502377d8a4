package main

import (
	"math"
	"path/filepath"
	"sort"
	"time"
)

// coreStages are the origin's read stages, whose sums should account
// for its read duration; what they leave is core.stage_residual_frac.
var coreStages = []string{"shard_lookup", "flight_wait", "verify", "bit_fetch", "universal", "personal", "full_chain"}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// iqrFrac is the distance between the first and third quartile as a
// share of the median, the same spread the benchmark's bounds are
// checked against.
func iqrFrac(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	// The exclusive method of Python's statistics.quantiles(n=4).
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return ratio(q(0.75)-q(0.25), median(s))
}

// ledger fills res.metrics with everything measured from outside the
// daemons over the timed phase: the bench's own timings, scrape
// deltas, and /proc deltas.
func (e *env) ledger(res *result, ph *phase, before, after snapshot) error {
	m := res.metrics
	// Rows that apply to some runs only read 0 elsewhere.
	for _, name := range []string{"cluster.entries_skew", "bench.trace_overhead_frac", "core.stage_residual_frac", "tail.read_pmax_ms", "tail.read_pmax_q"} {
		m[name] = 0
	}
	sd := after.sidecar.sub(before.sidecar)
	od := after.origin.sub(before.origin)
	ops := float64(ph.total.ops())
	kops := ops / 1000
	reads := float64(ph.total.reads)

	// Slice medians.
	var rate, p50, p90, w50, p50Traced, p50Plain []float64
	for i, s := range ph.slices {
		rate = append(rate, float64(s.ops())/s.wall.Seconds())
		lat := sortDurations(s.readLat)
		p50 = append(p50, quantileMS(lat, 0.50))
		p90 = append(p90, quantileMS(lat, 0.90))
		if len(s.writeLat) > 0 {
			w50 = append(w50, quantileMS(sortDurations(s.writeLat), 0.50))
		}
		if ph.traced[i] {
			p50Traced = append(p50Traced, p50[i])
		} else {
			p50Plain = append(p50Plain, p50[i])
		}
	}
	m["ops_per_s"] = median(rate)
	m["read_p50_ms"] = median(p50)
	m["read_p90_ms"] = median(p90)
	m["write_p50_ms"] = median(w50)
	m["bench.slice_spread_frac"] = iqrFrac(rate)
	if len(p50Traced) > 0 {
		m["bench.trace_overhead_frac"] = ratio(median(p50Traced)-median(p50Plain), median(p50Plain))
	}

	// Tails over the whole phase: recorded, not bounded.
	all := sortDurations(append([]time.Duration(nil), ph.total.readLat...))
	m["tail.read_p99_ms"] = quantileMS(all, 0.99)
	m["tail.write_p99_ms"] = quantileMS(sortDurations(append([]time.Duration(nil), ph.total.writeLat...)), 0.99)
	if n := len(all); n > 10 {
		// The highest percentile with at least ten samples beyond it.
		m["tail.read_pmax_ms"] = float64(all[n-11]) / float64(time.Millisecond)
		m["tail.read_pmax_q"] = float64(n-10) / float64(n)
	}

	m["failed_op_frac"] = ratio(float64(ph.total.failed), ops)
	m["plcached.http_5xx"] = float64(ph.total.http5xx + ph.refused)
	m["recovery_s"] = median(ph.recoveryS)
	m["store.recovered_frac"] = median(ph.recoveredFrac)
	m["remote.stale_reads"] = float64(after.stale - before.stale)

	// /proc deltas.
	sidecarCPU := after.sidecarProc.cpuMS - before.sidecarProc.cpuMS
	originCPU := after.originProc.cpuMS - before.originProc.cpuMS
	m["cpu_ms_per_kop"] = ratio(sidecarCPU+originCPU, kops)
	m["plcached.cpu_ms_per_kop"] = ratio(sidecarCPU, kops)
	m["placelessd.cpu_ms_per_kop"] = ratio(originCPU, kops)
	m["bench.cpu_ms_per_kop"] = ratio(after.selfCPU-before.selfCPU, kops)
	m["plcached.peak_rss_mb"] = after.sidecarProc.peakRSSMB
	m["placelessd.peak_rss_mb"] = after.originProc.peakRSSMB
	m["peak_rss_mb"] = after.sidecarProc.peakRSSMB + after.originProc.peakRSSMB
	m["store.disk_write_bytes_per_kop"] = ratio(after.originProc.writeBytes-before.originProc.writeBytes, kops)

	// Sidecar: the router's counters in cluster mode, the one remote
	// cache's in single mode. Cluster-mode nodes register no metrics,
	// so their evictions and invalidations cannot be seen from outside
	// and read 0.
	m["cluster.reads"] = sd["placeless_cluster_reads_total"]
	m["cluster.writes"] = sd["placeless_cluster_writes_total"]
	m["cluster.failovers"] = sd["placeless_cluster_failovers_total"]
	m["remote.evictions"] = sd["placeless_remote_evictions_total"]
	m["remote.invalidations"] = sd["placeless_remote_invalidations_total"]
	m["remote.coalesced"] = sd["placeless_remote_coalesced_misses_total"]
	m["remote.epoch_flushes"] = sd["placeless_remote_epoch_flushes_total"]
	m["remote.reconnects"] = sd["placeless_remote_reconnects_total"]
	m["remote.degraded_errors"] = sd["placeless_remote_degraded_errors_total"] + sd["placeless_cluster_degraded_errors_total"]
	m["server.frames_batched"] = sd["placeless_remote_frames_batched_total"]
	m["remote.rtt_mean_us"] = 1e6 * ratio(sd[stageSeries("sum", "remote_rtt")], sd[stageSeries("count", "remote_rtt")])
	if e.w.cluster {
		var st sidecarStatus
		if err := fetchStatus(e.sidecarHTTP, &st); err != nil {
			return err
		}
		var max, sum float64
		for _, n := range st.Nodes {
			sum += float64(n.Entries)
			max = math.Max(max, float64(n.Entries))
		}
		m["cluster.entries_skew"] = ratio(max, sum/float64(len(st.Nodes)))
	}

	// Origin: wire server, core cache, stream pools, disk tier.
	originReads := od.sumPrefix("placeless_reads_total{")
	m["remote.hit_ratio"] = 1 - ratio(originReads, reads)
	m["server.requests"] = od["placeless_server_requests_total"]
	m["server.bytes_sent_per_op"] = ratio(od["placeless_server_bytes_sent_total"], ops)
	m["server.bytes_recv_per_op"] = ratio(od["placeless_server_bytes_received_total"], ops)
	m["server.notifications"] = od["placeless_server_notifications_total"]
	for _, v := range []string{"hit", "memo", "miss", "disk", "coalesced", "error"} {
		m["core.verdict."+v] = od[`placeless_reads_total{verdict="`+v+`"}`]
	}
	m["core.hit_ratio"] = ratio(m["core.verdict.hit"], originReads)
	readSum := od["placeless_read_duration_seconds_sum"]
	m["core.read_mean_us"] = 1e6 * ratio(readSum, od["placeless_read_duration_seconds_count"])
	var staged float64
	for _, st := range coreStages {
		sum := od[stageSeries("sum", st)]
		staged += sum
		if st != "full_chain" { // the unstaged fallback has no ledger row of its own
			m["core.stage."+st+"_us"] = 1e6 * ratio(sum, od[stageSeries("count", st)])
		}
	}
	if readSum > 0 {
		m["core.stage_residual_frac"] = 1 - staged/readSum
	}
	m["core.evictions"] = od["placeless_cache_evictions_total"]
	m["core.invalidations"] = od["placeless_cache_invalidations_total"]
	m["core.notifications"] = od["placeless_cache_notifications_total"]
	m["core.universal_stage_runs"] = od["placeless_cache_universal_stage_runs_total"]
	m["core.prefix_segment_runs"] = od["placeless_prefix_segment_runs_total"]
	m["core.prefix_hits"] = od["placeless_prefix_hits_total"]
	m["core.intermediate_hits"] = od["placeless_cache_intermediate_hits_total"]
	m["core.prefix_installs"] = od["placeless_prefix_installs_total"]
	m["core.prefix_install_skips"] = od["placeless_prefix_install_skips_total"]
	runs := m["core.universal_stage_runs"] + m["core.prefix_segment_runs"]
	saved := m["core.intermediate_hits"] + m["core.prefix_hits"]
	m["core.segment_runs_saved_ratio"] = ratio(saved, saved+runs)
	m["recompute_runs_per_kread"] = ratio(runs, reads/1000)
	m["stream.pool_reuse_ratio"] = 1 - ratio(od["placeless_stream_pool_news_total"], od["placeless_stream_pool_gets_total"])
	m["store.demotions"] = od["placeless_store_demotions_total"]
	m["store.intermediate_demotions"] = od["placeless_store_intermediate_demotions_total"]
	m["store.promotions"] = od["placeless_store_promotions_total"]
	m["store.intermediate_promotions"] = od["placeless_store_intermediate_promotions_total"]
	m["store.promotion_rejects"] = od["placeless_store_promotion_rejects_total"]
	m["store.errors"] = od["placeless_store_errors_total"]

	// Gauges are read from the live origin, not from the sums over
	// incarnations.
	live, err := fetchMetrics(e.originHTTP)
	if err != nil {
		return err
	}
	m["store.bytes"] = live["placeless_store_bytes"]
	m["store.segments"] = live["placeless_store_segments"]
	onDisk, err := dirBytes(filepath.Join(e.dir, "store"))
	if err != nil {
		return err
	}
	m["disk_amp"] = ratio(float64(onDisk), live["placeless_cache_bytes_stored"])
	return nil
}

// reconcile checks the bench's own op counts against the daemons'
// counters. A mismatch means the ledger describes a different run from
// the one that was timed, so it fails the run.
func (e *env) reconcile(res *result, ph *phase, before, after snapshot) {
	sd := after.sidecar.sub(before.sidecar)
	od := after.origin.sub(before.origin)
	reads, writes := float64(ph.total.reads), float64(ph.total.writes)
	originReads := od.sumPrefix("placeless_reads_total{")
	if e.w.cluster {
		if got := sd["placeless_cluster_reads_total"]; got != reads {
			res.problemf("reconcile: sent %v reads, router counted %v", reads, got)
		}
		if got := sd["placeless_cluster_writes_total"]; got != writes {
			res.problemf("reconcile: sent %v writes, router counted %v", writes, got)
		}
		// Every key was subscribed in the warm-up, so the origin's
		// requests are the sidecar's misses, the writes it passed on,
		// and the churn the bench sent itself.
		want := originReads + writes + float64(ph.total.churnRPCs)
		if got := od["placeless_server_requests_total"]; got != want {
			res.problemf("reconcile: origin handled %v requests, expected %v reads + %v writes + %v churn calls", got, originReads, writes, ph.total.churnRPCs)
		}
		return
	}
	served := sd["placeless_remote_hits_total"] + sd["placeless_remote_misses_total"] + sd["placeless_remote_coalesced_misses_total"]
	if served != reads {
		res.problemf("reconcile: sent %v reads, sidecar counted %v hits + misses", reads, served)
	}
	if misses := sd["placeless_remote_misses_total"]; misses != originReads {
		res.problemf("reconcile: sidecar missed %v times, origin counted %v reads", misses, originReads)
	}
}

// assertShape checks that the workload exercised what it was chosen
// for.
func (e *env) assertShape(res *result) {
	m := res.metrics
	need := func(ok bool, format string, args ...interface{}) {
		if !ok {
			res.problemf("shape: "+format, args...)
		}
	}
	switch e.w.name {
	case "hot_small":
		need(m["remote.hit_ratio"] >= 0.99, "remote.hit_ratio %.4f < 0.99", m["remote.hit_ratio"])
		need(m["server.requests"] <= 0.01*float64(res.attempted), "origin handled %v requests; it should idle", m["server.requests"])
	case "wire_large":
		need(m["remote.hit_ratio"] <= 0.15, "remote.hit_ratio %.4f > 0.15", m["remote.hit_ratio"])
		need(m["core.hit_ratio"] >= 0.95, "core.hit_ratio %.4f < 0.95", m["core.hit_ratio"])
	case "churn_mix":
		for _, name := range []string{"core.verdict.memo", "core.verdict.miss", "core.invalidations", "core.evictions", "store.demotions"} {
			need(m[name] > 0, "%s is 0", name)
		}
	case "restart_recover":
		need(m["core.verdict.disk"] >= 0.9*float64(res.attempted), "core.verdict.disk %v < 0.9 of %d first-pass reads", m["core.verdict.disk"], res.attempted)
		need(m["store.recovered_frac"] >= 0.9, "store.recovered_frac %.4f < 0.9", m["store.recovered_frac"])
	}
}

// rungMetrics derives self times from adjacent rungs of the in-process
// replay.
func rungMetrics(res *result, w *workload, rt *rungTimes, liveHitP50 float64) {
	m := res.metrics
	top := rungRemote
	if w.cluster {
		top = rungCluster
	}
	m["plcached.http_hit_self_us"] = liveHitP50 - rt.p50[top]
	m["cluster.pick_ns"] = rt.clusterPickNS
	m["remote.hit_us"] = rt.p50[rungRemote]
	m["remote.miss_self_us"] = rt.remoteMissP50 - rt.p50[rungWire]
	m["server.rtt_hit_us"] = rt.p50[rungWire]
	m["server.alloc_bytes_per_read"] = rt.wireAllocPerOp
	m["core.hit_us"] = rt.p50[rungCore]
	m["docspace.staged_read_us"] = rt.p50[rungSpace]
	m["docspace.write_us"] = rt.writeP50
	m["docspace.attach_us"] = rt.attachP50
	m["sig.mb_per_s"] = rt.sigMBPerS
	m["store.open_s"] = rt.storeOpenS
	m["store.put_blob_us"] = rt.storePutBlobP50
	m["store.get_blob_us"] = rt.storeGetBlobP50
}
