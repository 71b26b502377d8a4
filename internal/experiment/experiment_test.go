package experiment

// These tests assert the *shape* claims each experiment exists to
// demonstrate (who wins, by roughly what factor, where crossovers
// fall), not absolute numbers — matching the reproduction contract in
// DESIGN.md.

import (
	"strings"
	"testing"
	"time"
)

func TestTable1Shape(t *testing.T) {
	res, err := RunTable1(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byLabel := map[string]Table1Row{}
	for _, r := range res.Rows {
		byLabel[r.Source] = r
	}
	parc, gatech, local := byLabel["parcweb"], byLabel["www.gatech.edu"], byLabel["local file"]

	// Paper sizes.
	if parc.Size != 1915 || gatech.Size != 10883 || local.Size != 1104 {
		t.Fatalf("sizes wrong: %+v", res.Rows)
	}
	// Distance ordering for uncached access: local < parcweb < gatech.
	if !(local.NoCache < parc.NoCache && parc.NoCache < gatech.NoCache) {
		t.Fatalf("no-cache ordering broken: local=%v parc=%v gatech=%v",
			local.NoCache, parc.NoCache, gatech.NoCache)
	}
	for _, r := range res.Rows {
		// Miss ≈ no-cache plus a small overhead: within 25%.
		if r.Miss < r.NoCache {
			t.Fatalf("%s: miss %v < no-cache %v", r.Source, r.Miss, r.NoCache)
		}
		if r.Miss > r.NoCache+r.NoCache/4+time.Millisecond {
			t.Fatalf("%s: miss overhead too large: %v vs %v", r.Source, r.Miss, r.NoCache)
		}
		// Hit must crush the remote latencies.
		if r.Hit > r.NoCache {
			t.Fatalf("%s: hit %v not faster than no-cache %v", r.Source, r.Hit, r.NoCache)
		}
	}
	// For the remote sources the win is at least 5×.
	if gatech.Hit*5 > gatech.NoCache || parc.Hit*5 > parc.NoCache {
		t.Fatalf("remote hit speedup too small: parc %v/%v gatech %v/%v",
			parc.Hit, parc.NoCache, gatech.Hit, gatech.NoCache)
	}
	out := Table(res)
	for _, want := range []string{"parcweb", "www.gatech.edu", "local file", "1,915", "10,883", "1,104"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Deterministic(t *testing.T) {
	a, _ := RunTable1(7, 3)
	b, _ := RunTable1(7, 3)
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d differs across runs: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

func TestNotifierVerifierTradeoff(t *testing.T) {
	res, err := RunNotifierVerifier(DefaultNVConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[ConsistencyMode]NVRow{}
	for _, r := range res.Rows {
		rows[r.Mode] = r
	}
	vOnly, nOnly, both := rows[VerifierOnly], rows[NotifierOnly], rows[BothMechanisms]

	// The paper's tradeoff: verifier execution costs hit latency...
	if nOnly.MeanHit >= vOnly.MeanHit {
		t.Fatalf("notifier-only hits (%v) should be faster than verifier-only (%v)",
			nOnly.MeanHit, vOnly.MeanHit)
	}
	// ...while notifiers add load to the Placeless system.
	if nOnly.Notifications == 0 || vOnly.Notifications != 0 {
		t.Fatalf("notification load wrong: notifier=%d verifier=%d",
			nOnly.Notifications, vOnly.Notifications)
	}
	if vOnly.VerifierPolls == 0 || nOnly.VerifierPolls != 0 {
		t.Fatalf("poll load wrong: verifier=%d notifier=%d",
			vOnly.VerifierPolls, nOnly.VerifierPolls)
	}
	// Consistency: notifier-only misses out-of-band updates; the
	// other modes see everything.
	if nOnly.StaleReads == 0 {
		t.Fatal("notifier-only mode should serve some stale reads (out-of-band updates invisible)")
	}
	if vOnly.StaleReads != 0 || both.StaleReads != 0 {
		t.Fatalf("stale reads in verified modes: v=%d both=%d", vOnly.StaleReads, both.StaleReads)
	}
	if !strings.Contains(Table(res), "verifier-only") {
		t.Fatal("table rendering broken")
	}
}

func TestNotifierVerifierSweepShape(t *testing.T) {
	cfg := DefaultNVConfig()
	cfg.Reads = 800 // keep the sweep quick
	res, err := RunNotifierVerifierSweep(cfg, []int{5, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rates) != 2 {
		t.Fatalf("rates = %d", len(res.Rates))
	}
	byMode := func(rate NVSweepRow, m ConsistencyMode) NVRow {
		for _, r := range rate.Rows {
			if r.Mode == m {
				return r
			}
		}
		t.Fatalf("mode %v missing", m)
		return NVRow{}
	}
	fast, slow := res.Rates[0], res.Rates[1]
	// More updates → more notifications and lower hit ratios.
	if byMode(fast, NotifierOnly).Notifications <= byMode(slow, NotifierOnly).Notifications {
		t.Fatal("notification load did not grow with update rate")
	}
	if byMode(fast, VerifierOnly).HitRatio >= byMode(slow, VerifierOnly).HitRatio {
		t.Fatal("hit ratio did not fall with update rate")
	}
	// Verified modes stay stale-free at every rate.
	for _, rate := range res.Rates {
		if byMode(rate, VerifierOnly).StaleReads != 0 || byMode(rate, BothMechanisms).StaleReads != 0 {
			t.Fatalf("stale reads in verified mode at 1/%d", rate.UpdateEvery)
		}
	}
	if !strings.Contains(Table(res), "1/5") {
		t.Fatal("sweep table rendering broken")
	}
}

func TestReplacementGDSWins(t *testing.T) {
	res, err := RunReplacement(DefaultReplacementConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]ReplacementRow{}
	for _, r := range res.Rows {
		rows[r.Policy] = r
	}
	if len(rows) != 6 {
		t.Fatalf("policies = %d", len(rows))
	}
	// The paper's expectation: cost-aware replacement (GDS/GDSF)
	// yields lower mean latency than cost-blind policies, because it
	// keeps expensive-to-rebuild documents. Compare against FIFO, the
	// weakest baseline.
	gds, fifo := rows["gds"], rows["fifo"]
	if gds.MeanRead >= fifo.MeanRead {
		t.Fatalf("GDS mean read %v not better than FIFO %v", gds.MeanRead, fifo.MeanRead)
	}
	for _, r := range res.Rows {
		if r.HitRatio <= 0 || r.HitRatio >= 1 {
			t.Fatalf("%s hit ratio %v out of range", r.Policy, r.HitRatio)
		}
		if r.Evictions == 0 {
			t.Fatalf("%s: no evictions — cache not under pressure", r.Policy)
		}
	}
}

func TestSharingCurve(t *testing.T) {
	res, err := RunSharing(DefaultSharingConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	// With no personalization, N users share one blob per document:
	// saved ≈ 1 - 1/N.
	wantSaved := 1 - 1/float64(res.Config.Users)
	if first.Saved < wantSaved-0.02 || first.Saved > wantSaved+0.02 {
		t.Fatalf("unpersonalized saved = %v, want ≈%v", first.Saved, wantSaved)
	}
	// With full personalization nothing is shared.
	if last.Saved != 0 {
		t.Fatalf("fully personalized saved = %v, want 0", last.Saved)
	}
	// Monotone decline in savings as personalization rises.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Saved > res.Rows[i-1].Saved+1e-9 {
			t.Fatalf("savings not monotone: %+v", res.Rows)
		}
	}
	// Entry count is constant — sharing is about bytes, not entries.
	for _, r := range res.Rows {
		if r.Entries != res.Config.Docs*res.Config.Users {
			t.Fatalf("entries = %d", r.Entries)
		}
	}
}

func TestCacheabilityMix(t *testing.T) {
	res, err := RunCacheability(DefaultCacheabilityConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]CacheabilityRow{}
	for _, r := range res.Rows {
		rows[r.Mix] = r
	}
	allCacheable, allEvents, allUncacheable := rows["100/0/0"], rows["0/100/0"], rows["0/0/100"]
	// Uncacheable population: zero hits, worst latency.
	if allUncacheable.HitRatio != 0 {
		t.Fatalf("uncacheable hit ratio = %v", allUncacheable.HitRatio)
	}
	if allUncacheable.MeanRead <= allCacheable.MeanRead {
		t.Fatal("uncacheable population should be slower than cacheable")
	}
	// CacheWithEvents keeps the hit ratio of unrestricted caching...
	if allEvents.HitRatio < allCacheable.HitRatio-0.02 {
		t.Fatalf("with-events hit ratio %v collapsed vs %v", allEvents.HitRatio, allCacheable.HitRatio)
	}
	// ...while forwarding one event per hit.
	if allEvents.EventsForwarded == 0 || allCacheable.EventsForwarded != 0 {
		t.Fatalf("events forwarded: events=%d cacheable=%d",
			allEvents.EventsForwarded, allCacheable.EventsForwarded)
	}
}

func TestChainsFlatHitCurve(t *testing.T) {
	res, err := RunChains(DefaultChainsConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	// No-cache latency grows with the chain (≈ +5ms per property).
	grown := last.NoCache - first.NoCache
	wantGrowth := time.Duration(res.Config.MaxChain) * res.Config.PropCost
	if grown < wantGrowth*9/10 {
		t.Fatalf("no-cache growth %v, want ≈%v", grown, wantGrowth)
	}
	// The hit curve stays flat: caching hides property execution.
	if last.Hit > first.Hit+time.Millisecond {
		t.Fatalf("hit latency grew with chain: %v -> %v", first.Hit, last.Hit)
	}
	// Replacement cost reflects the chain, feeding GDS.
	if last.ReplacementCost <= first.ReplacementCost {
		t.Fatal("replacement cost did not grow with the chain")
	}
}

func TestQoSPinningWorks(t *testing.T) {
	res, err := RunQoS(DefaultQoSConfig())
	if err != nil {
		t.Fatal(err)
	}
	var off, on QoSRow
	for _, r := range res.Rows {
		if r.Config == "qos-off" {
			off = r
		} else {
			on = r
		}
	}
	// With the QoS property inflating replacement cost, the document
	// stays resident and meets its latency target.
	if !on.MetTarget {
		t.Fatalf("qos-on failed the 250ms target: %+v", on)
	}
	if on.QoSHitRatio <= off.QoSHitRatio {
		t.Fatalf("qos-on hit ratio %v not better than qos-off %v", on.QoSHitRatio, off.QoSHitRatio)
	}
	if off.MetTarget {
		t.Fatalf("qos-off unexpectedly met the target — no pressure in the experiment: %+v", off)
	}
	if on.QoSWorstRead >= off.QoSWorstRead {
		t.Fatalf("worst-case read did not improve: on=%v off=%v", on.QoSWorstRead, off.QoSWorstRead)
	}
}

func TestPlacementShape(t *testing.T) {
	res, err := RunPlacement(DefaultPlacementConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]PlacementRow{}
	for _, r := range res.Rows {
		rows[r.Placement] = r
	}
	none, srvOnly, appOnly, both := rows["no-cache"], rows["server-only"], rows["app-only"], rows["app+server"]
	// Any cache beats none.
	for name, r := range map[string]PlacementRow{"server-only": srvOnly, "app-only": appOnly, "app+server": both} {
		if r.MeanRead >= none.MeanRead {
			t.Fatalf("%s (%v) not better than no-cache (%v)", name, r.MeanRead, none.MeanRead)
		}
	}
	// The server cache converts app-cache misses from WAN fetches
	// into link round trips, so the combination beats either alone.
	if both.MeanRead >= srvOnly.MeanRead || both.MeanRead >= appOnly.MeanRead {
		t.Fatalf("combined placement %v vs server %v / app %v", both.MeanRead, srvOnly.MeanRead, appOnly.MeanRead)
	}
	// The small app-only cache pays full WAN misses, so with this
	// capacity the server placement wins on mean.
	if srvOnly.MeanRead >= appOnly.MeanRead {
		t.Fatalf("server-only %v should beat the small app-only cache %v", srvOnly.MeanRead, appOnly.MeanRead)
	}
}

func TestCostAblationShape(t *testing.T) {
	res, err := RunCostAblation(DefaultReplacementConfig())
	if err != nil {
		t.Fatal(err)
	}
	var full, constant CostAblationRow
	for _, r := range res.Rows {
		if r.Config == "full" {
			full = r
		} else {
			constant = r
		}
	}
	// The paper's design decision: property-supplied costs must beat
	// a cost-blind GDS on mean latency.
	if full.MeanRead >= constant.MeanRead {
		t.Fatalf("full-cost GDS %v not better than constant-cost %v", full.MeanRead, constant.MeanRead)
	}
}

func TestCollectionPrefetchShape(t *testing.T) {
	res, err := RunCollection(DefaultCollectionConfig())
	if err != nil {
		t.Fatal(err)
	}
	var off, on CollectionRow
	for _, r := range res.Rows {
		if r.Config == "prefetch-off" {
			off = r
		} else {
			on = r
		}
	}
	// Without prefetch every member pays the WAN; with it, later
	// members are pure hits (≥100× faster first touch).
	if on.MeanSubsequent*100 > off.MeanSubsequent {
		t.Fatalf("later-member latency: on=%v off=%v", on.MeanSubsequent, off.MeanSubsequent)
	}
	if on.Prefetches != int64(res.Config.Members-1) || off.Prefetches != 0 {
		t.Fatalf("prefetches: on=%d off=%d", on.Prefetches, off.Prefetches)
	}
	// The first read pays for the warmup; the whole-walk totals stay
	// comparable (prefetching shifts cost, it does not create it).
	if on.FirstRead < off.FirstRead {
		t.Fatal("prefetching first read should absorb the warmup cost")
	}
	if on.TotalWalk > off.TotalWalk*11/10 {
		t.Fatalf("prefetching inflated total walk: %v vs %v", on.TotalWalk, off.TotalWalk)
	}
}

func TestContentDeterministicAndSized(t *testing.T) {
	a := Content("x", 1000)
	b := Content("x", 1000)
	if len(a) != 1000 || string(a) != string(b) {
		t.Fatal("Content not deterministic or mis-sized")
	}
	if len(Content("y", 0)) != 1 {
		t.Fatal("zero size should clamp to 1")
	}
}

func TestFormatHelpers(t *testing.T) {
	if fmtInt(10883) != "10,883" || fmtInt(1104) != "1,104" || fmtInt(5) != "5" || fmtInt(0) != "0" {
		t.Fatalf("fmtInt broken: %s %s", fmtInt(10883), fmtInt(1104))
	}
	if fmtInt(1234567) != "1,234,567" {
		t.Fatalf("fmtInt(1234567) = %s", fmtInt(1234567))
	}
	if fmtMS(1500*time.Microsecond) != "1.50" {
		t.Fatalf("fmtMS = %s", fmtMS(1500*time.Microsecond))
	}
	if fmtPct(0.125) != "12.5%" {
		t.Fatalf("fmtPct = %s", fmtPct(0.125))
	}
	out := table([]string{"a", "bb"}, [][]string{{"1", "2"}})
	if !strings.Contains(out, "a") || !strings.Contains(out, "--") {
		t.Fatalf("table = %q", out)
	}
}

func TestMemoFanOut(t *testing.T) {
	// Small configuration of E12; plbench runs the full sweep. The
	// invariants, not the magnitudes, are asserted: the universal
	// stage runs once per (content, chain) key regardless of fan-out,
	// and memoized misses are strictly cheaper than full ones.
	cfg := MemoConfig{
		Users:        []int{1, 4},
		DocSize:      4 << 10,
		PropCost:     time.Millisecond,
		PersonalCost: 100 * time.Microsecond,
		Rounds:       2,
		Seed:         1,
	}
	res, err := RunMemo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(cfg.Users) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(cfg.Users))
	}
	for i, row := range res.Rows {
		if row.Users != cfg.Users[i] {
			t.Fatalf("row %d users = %d", i, row.Users)
		}
		if row.UniversalRuns != 1 {
			t.Fatalf("row %d universal runs = %d, want 1", i, row.UniversalRuns)
		}
		if row.IntermediateHits != int64(row.Users*cfg.Rounds-1) {
			t.Fatalf("row %d intermediate hits = %d, want %d", i, row.IntermediateHits, row.Users*cfg.Rounds-1)
		}
		if row.MemoMiss >= row.FullMiss {
			t.Fatalf("row %d: memoized miss %v not cheaper than full miss %v", i, row.MemoMiss, row.FullMiss)
		}
		if row.SavedBytes <= 0 {
			t.Fatalf("row %d saved bytes = %d", i, row.SavedBytes)
		}
	}
	// Determinism (virtual clock): the JSON artifact must be stable.
	again, err := RunMemo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i] != again.Rows[i] {
			t.Fatalf("row %d not deterministic: %+v vs %+v", i, res.Rows[i], again.Rows[i])
		}
	}
}

func TestClusterScalingShape(t *testing.T) {
	// Small configuration of E16; plbench runs the full one. The shape
	// still carries the acceptance claim: aggregate warm-hit throughput
	// must scale with cluster size because the ring balances primaries.
	cfg := ClusterConfig{
		Nodes:    []int{1, 4},
		Docs:     32,
		Users:    4,
		Reads:    2048,
		Replicas: 2,
		VNodes:   256,
		HitCost:  time.Millisecond,
		Seed:     1,
	}
	res, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(res.Phases))
	}
	for _, p := range res.Phases {
		if p.Keys != cfg.Docs*cfg.Users || p.Reads != int64(cfg.Reads) {
			t.Fatalf("phase shape = %+v", p)
		}
		// Every measured read lands warm: the ring pins each key to its
		// owners, so the warm pass filled exactly the caches that serve.
		if p.Hits != p.Reads {
			t.Fatalf("nodes=%d: %d of %d measured reads hit", p.Nodes, p.Hits, p.Reads)
		}
		if p.Failovers != 0 {
			t.Fatalf("nodes=%d: %d failovers on a healthy fleet", p.Nodes, p.Failovers)
		}
	}
	if s := res.SpeedupByNodes["4"]; s < 3 {
		t.Fatalf("speedup at 4 nodes = %.2fx, want >= 3x (ring badly unbalanced)", s)
	}
	if res.Phases[0].Imbalance != 1 {
		t.Fatalf("single node imbalance = %.2f, want exactly 1", res.Phases[0].Imbalance)
	}
	if !strings.Contains(Table(res), "agg_ops/s") {
		t.Fatalf("table missing throughput column:\n%s", Table(res))
	}
}

func TestPrefixFanOut(t *testing.T) {
	// Reduced E17: plbench runs the full sweep. The acceptance
	// invariants are asserted at the 64-user level — the shared
	// personal segment executes once under multi-cut (O(distinct
	// prefixes), not O(users)), and the multi-cut miss path beats the
	// unmemoized one by at least 6x.
	cfg := PrefixConfig{
		Users:         []int{8, 64},
		DocSize:       4 << 10,
		UniversalCost: 2 * time.Millisecond,
		SharedCost:    4 * time.Millisecond,
		PersonalCost:  100 * time.Microsecond,
		Seed:          1,
	}
	res, err := RunPrefix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(cfg.Users) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(cfg.Users))
	}
	for i, row := range res.Rows {
		if row.Users != cfg.Users[i] {
			t.Fatalf("row %d users = %d", i, row.Users)
		}
		if row.UniversalRuns != 1 {
			t.Fatalf("row %d: universal runs = %d, want 1", i, row.UniversalRuns)
		}
		if row.SharedRunsMulti != 1 {
			t.Fatalf("row %d: multi-cut ran the shared segment %d times, want 1", i, row.SharedRunsMulti)
		}
		if row.PrefixHits < int64(row.Users-1) {
			t.Fatalf("row %d: prefix hits = %d, want >= %d", i, row.PrefixHits, row.Users-1)
		}
		if row.MultiMiss >= row.FullMiss {
			t.Fatalf("row %d: miss times not ordered multi < full: %v %v", i, row.MultiMiss, row.FullMiss)
		}
	}
	if last := res.Rows[len(res.Rows)-1]; last.SpeedupVsFull < 6 {
		t.Fatalf("speedup vs full at %d users = %.2fx, want >= 6x", last.Users, last.SpeedupVsFull)
	}
	// Determinism (virtual clock): the JSON artifact must be stable.
	again, err := RunPrefix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i] != again.Rows[i] {
			t.Fatalf("row %d not deterministic: %+v vs %+v", i, res.Rows[i], again.Rows[i])
		}
	}
}
