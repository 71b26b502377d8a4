// Package placeless benchmarks regenerate every quantitative exhibit:
// BenchmarkTable1 corresponds to the paper's Table 1; the remaining
// benchmarks correspond to extension experiments E1–E6 from DESIGN.md
// plus micro-benchmarks of the core cache operations. Each experiment
// benchmark reports the paper-relevant quantities as custom metrics
// (simulated milliseconds, ratios), since wall-clock ns/op measures
// only harness overhead on a virtual clock.
//
// Run with: go test -bench=. -benchmem
package placeless

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/experiment"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

// simMS converts a simulated duration to a float metric in
// milliseconds.
func simMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkTable1 regenerates Table 1 (T1): no-cache / miss / hit
// access times for the paper's three sources. Metrics are reported per
// source as sim-ms.
func BenchmarkTable1(b *testing.B) {
	var res experiment.Table1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunTable1(1, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		src := strings.ReplaceAll(row.Source, " ", "-")
		b.ReportMetric(simMS(row.NoCache), src+"_nocache_sim-ms")
		b.ReportMetric(simMS(row.Miss), src+"_miss_sim-ms")
		b.ReportMetric(simMS(row.Hit), src+"_hit_sim-ms")
	}
}

// BenchmarkNotifierVsVerifier regenerates experiment E1: the
// consistency-mechanism tradeoff.
func BenchmarkNotifierVsVerifier(b *testing.B) {
	var res experiment.NVResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunNotifierVerifier(experiment.DefaultNVConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(simMS(row.MeanHit), row.Mode.String()+"_hit_sim-ms")
		b.ReportMetric(float64(row.StaleReads), row.Mode.String()+"_stale")
	}
}

// BenchmarkReplacement regenerates experiment E2: the replacement
// policy ablation (GDS vs baselines).
func BenchmarkReplacement(b *testing.B) {
	var res experiment.ReplacementResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunReplacement(experiment.DefaultReplacementConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.HitRatio, row.Policy+"_hit-ratio")
		b.ReportMetric(simMS(row.MeanRead), row.Policy+"_read_sim-ms")
	}
}

// BenchmarkSharing regenerates experiment E3: signature-based storage
// sharing across users.
func BenchmarkSharing(b *testing.B) {
	var res experiment.SharingResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunSharing(experiment.DefaultSharingConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Saved, fmt.Sprintf("saved_at_%.0f%%", row.PersonalizedFrac*100))
	}
}

// BenchmarkCacheability regenerates experiment E4: the cacheability
// indicator mix.
func BenchmarkCacheability(b *testing.B) {
	var res experiment.CacheabilityResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunCacheability(experiment.DefaultCacheabilityConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.HitRatio, "hit-ratio_"+row.Mix)
	}
}

// BenchmarkPropertyChain regenerates experiment E5: latency vs chain
// length, cached and uncached.
func BenchmarkPropertyChain(b *testing.B) {
	var res experiment.ChainsResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunChains(experiment.DefaultChainsConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	b.ReportMetric(simMS(first.NoCache), "chain0_nocache_sim-ms")
	b.ReportMetric(simMS(last.NoCache), "chain8_nocache_sim-ms")
	b.ReportMetric(simMS(first.Hit), "chain0_hit_sim-ms")
	b.ReportMetric(simMS(last.Hit), "chain8_hit_sim-ms")
}

// BenchmarkQoS regenerates experiment E6: QoS-driven replacement-cost
// inflation.
func BenchmarkQoS(b *testing.B) {
	var res experiment.QoSResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunQoS(experiment.DefaultQoSConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.QoSHitRatio, row.Config+"_hit-ratio")
		b.ReportMetric(simMS(row.QoSWorstRead), row.Config+"_worst_sim-ms")
	}
}

// BenchmarkCollection regenerates experiment E8: related-document
// prefetching via the collection property.
func BenchmarkCollection(b *testing.B) {
	var res experiment.CollectionResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunCollection(experiment.DefaultCollectionConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(simMS(row.MeanSubsequent), row.Config+"_later_sim-ms")
		b.ReportMetric(simMS(row.TotalWalk), row.Config+"_walk_sim-ms")
	}
}

// BenchmarkCostAblation regenerates experiment E9: the value of
// property-supplied replacement costs inside GDS.
func BenchmarkCostAblation(b *testing.B) {
	var res experiment.CostAblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunCostAblation(experiment.DefaultReplacementConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(simMS(row.MeanRead), row.Config+"-cost_read_sim-ms")
	}
}

// BenchmarkPlacement regenerates experiment E10: application-side vs
// server-side cache placement.
func BenchmarkPlacement(b *testing.B) {
	var res experiment.PlacementResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiment.RunPlacement(experiment.DefaultPlacementConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(simMS(row.MeanRead), row.Placement+"_read_sim-ms")
	}
}

// benchWorld builds a minimal world for the micro-benchmarks: one
// local document behind a cache, no simulated latency so ns/op
// reflects real code cost.
func benchWorld(b *testing.B, opts core.Options) (*core.Cache, *docspace.Space) {
	b.Helper()
	clk := clock.NewVirtual(time.Date(1999, 3, 28, 0, 0, 0, 0, time.UTC))
	src := repo.NewMem("m", clk, simnet.NewPath("free", 1))
	space := docspace.New(clk, nil)
	src.Store("/d", experiment.Content("d", 4096))
	if _, err := space.CreateDocument("d", "u", &property.RepoBitProvider{Repo: src, Path: "/d"}); err != nil {
		b.Fatal(err)
	}
	return core.New(space, opts), space
}

// BenchmarkCacheHit measures the real (wall-clock) cost of a cache hit
// including mtime verifier execution.
func BenchmarkCacheHit(b *testing.B) {
	cache, _ := benchWorld(b, core.Options{})
	if _, err := cache.Read("d", "u"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Read("d", "u"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheMiss measures the full read-path execution plus entry
// installation (each iteration invalidates first).
func BenchmarkCacheMiss(b *testing.B) {
	cache, _ := benchWorld(b, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Invalidate("d", "u")
		if _, err := cache.Read("d", "u"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadPathDirect measures the middleware read path with no
// cache.
func BenchmarkReadPathDirect(b *testing.B) {
	_, space := benchWorld(b, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := space.ReadDocument("d", "u"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadPathWithChain measures the read path with a five-stage
// transform chain (real transform work, zero simulated cost).
func BenchmarkReadPathWithChain(b *testing.B) {
	_, space := benchWorld(b, core.Options{})
	for i := 0; i < 5; i++ {
		p := property.NewUppercaser(0)
		p.PropName = fmt.Sprintf("upper-%d", i)
		if err := space.Attach("d", "u", docspace.Personal, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := space.ReadDocument("d", "u"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteThrough measures a write-through update including
// notifier dispatch.
func BenchmarkWriteThrough(b *testing.B) {
	cache, _ := benchWorld(b, core.Options{})
	data := experiment.Content("w", 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cache.Write("d", "u", data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParallelWorld builds a cache over many pre-warmed documents on a
// zero-latency source. hitCost > 0 (with the real clock) reproduces the
// paper's per-hit access time as an actual sleep, which is where the
// seed's lock discipline and the sharded core diverge observably: the
// seed slept while holding its global mutex.
func benchParallelWorld(b *testing.B, docs int, hitCost time.Duration, o *obs.Observer) *core.Cache {
	b.Helper()
	var clk docspace.TimerClock = clock.NewVirtual(time.Date(1999, 3, 28, 0, 0, 0, 0, time.UTC))
	if hitCost > 0 {
		clk = clock.Real{} // real sleeps, so overlap (or its absence) is measurable
	}
	src := repo.NewMem("m", clk, simnet.NewPath("free", 1))
	space := docspace.New(clk, nil)
	cache := core.New(space, core.Options{HitCost: hitCost, Observer: o})
	for i := 0; i < docs; i++ {
		id := fmt.Sprintf("d%d", i)
		src.Store("/"+id, experiment.Content(id, 4096))
		if _, err := space.CreateDocument(id, "u", &property.RepoBitProvider{Repo: src, Path: "/" + id}); err != nil {
			b.Fatal(err)
		}
		if _, err := cache.Read(id, "u"); err != nil {
			b.Fatal(err)
		}
	}
	return cache
}

// seedMutexCache reproduces the seed cache's concurrency discipline
// for baseline comparison: one global mutex held across the entire
// read, including the simulated per-hit access cost — exactly what the
// pre-sharding implementation did with its single sync.Mutex.
type seedMutexCache struct {
	mu sync.Mutex
	c  *core.Cache
}

func (s *seedMutexCache) Read(doc, user string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Read(doc, user)
}

// BenchmarkParallelHitThroughput measures aggregate hit throughput
// with b.RunParallel (8× GOMAXPROCS goroutines) across a working set
// of warm documents, with the paper's 200µs hit cost applied on the
// real clock. Three configurations:
//
//   - sharded: the auto-sharded core; goroutines' hit costs overlap.
//   - seedMutex: the seed's discipline — a global mutex held across
//     the whole read including the hit-cost sleep, serializing all
//     goroutines end to end.
//   - observed: sharded with an obs.Observer attached, so the
//     instrumentation overhead against sharded is measurable directly
//     from go test -bench.
//
// The acceptance ratio (sharded vs seedMutex ns/op at the same
// goroutine count) is recorded in EXPERIMENTS.md.
func BenchmarkParallelHitThroughput(b *testing.B) {
	const docs = 64
	hitCost := 200 * time.Microsecond // experiment.DefaultCacheOptions.HitCost
	for _, cfg := range []struct {
		name                string
		seedMutex, observed bool
	}{
		{"sharded", false, false},
		{"seedMutex", true, false},
		{"observed", false, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var o *obs.Observer
			if cfg.observed {
				o = obs.NewObserver() // fresh per trial: an Observer serves one cache
			}
			cache := benchParallelWorld(b, docs, hitCost, o)
			readFn := cache.Read
			if cfg.seedMutex {
				readFn = (&seedMutexCache{c: cache}).Read
			}
			var next atomic.Int64
			b.SetParallelism(8) // 8× GOMAXPROCS goroutines: contention is the point
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := next.Add(1) // per-goroutine stride offset
				for pb.Next() {
					id := fmt.Sprintf("d%d", int(i)%docs)
					i++
					if _, err := readFn(id, "u"); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// benchMemoWorld builds the shared-universal-stage scenario: one 64 KiB
// document with a heavy, memoizable universal chain (spell correct,
// translate, line number — real byte work, zero simulated cost) and a
// cheap personal watermark per user. Every user's read shares the
// universal prefix; only the watermark differs.
func benchMemoWorld(b *testing.B, users []string, memoize bool) *core.Cache {
	b.Helper()
	clk := clock.NewVirtual(time.Date(1999, 3, 28, 0, 0, 0, 0, time.UTC))
	src := repo.NewMem("m", clk, simnet.NewPath("free", 1))
	space := docspace.New(clk, nil)
	content := []byte(strings.Repeat("teh quick document will recieve a seperate update\n", 1340))[:64<<10]
	src.Store("/d", content)
	if _, err := space.CreateDocument("d", users[0], &property.RepoBitProvider{Repo: src, Path: "/d"}); err != nil {
		b.Fatal(err)
	}
	for _, p := range []*property.Transformer{
		property.NewSpellCorrector(0),
		property.NewTranslator(0),
		property.NewLineNumberer(0),
	} {
		if err := space.Attach("d", "", docspace.Universal, p); err != nil {
			b.Fatal(err)
		}
	}
	for i, u := range users {
		if i > 0 {
			if _, err := space.AddReference("d", u); err != nil {
				b.Fatal(err)
			}
		}
		if err := space.Attach("d", u, docspace.Personal, property.NewWatermarker(u, 0)); err != nil {
			b.Fatal(err)
		}
	}
	return core.New(space, core.Options{Memoize: memoize})
}

// BenchmarkSharedUniversalStage is the acceptance benchmark for the
// intermediate memo store: 8 users repeatedly miss on one document
// whose universal chain dominates the read cost. Per-user invalidation
// before each read forces the personal suffix to re-run every time —
// exactly the fan-out the paper's universal/personal split predicts is
// redundant. memo=off re-executes the whole chain per user; memo=on
// executes the universal stage once per (content, chain) key and
// serves the other reads from the intermediate. The metrics prove the
// accounting: universal_runs stays at 1 under memo=on while
// intermediate_hits grows with N.
func BenchmarkSharedUniversalStage(b *testing.B) {
	users := make([]string, 8)
	for i := range users {
		users[i] = fmt.Sprintf("user%02d", i)
	}
	for _, memo := range []bool{false, true} {
		name := "memo=off"
		if memo {
			name = "memo=on"
		}
		b.Run(name, func(b *testing.B) {
			cache := benchMemoWorld(b, users, memo)
			b.SetBytes(int64(len(users)) * 64 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, u := range users {
					cache.Invalidate("d", u)
					if _, err := cache.Read("d", u); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			st := cache.Stats()
			b.ReportMetric(float64(st.UniversalStageRuns), "universal_runs")
			b.ReportMetric(float64(st.IntermediateHits), "intermediate_hits")
			b.ReportMetric(float64(st.BytesRecomputedSaved)/1e6, "saved_MB")
			if memo && st.UniversalStageRuns != 1 {
				b.Fatalf("UniversalStageRuns = %d, want 1 (one run per (content, chain) key)", st.UniversalStageRuns)
			}
		})
	}
}

// BenchmarkParallelMixedThroughput stresses the sharded cache with a
// read-heavy mix that includes invalidations (the notifier path takes
// shard + policy locks only), approximating concurrent application
// reads racing server-pushed invalidations.
func BenchmarkParallelMixedThroughput(b *testing.B) {
	const docs = 64
	cache := benchParallelWorld(b, docs, 0, nil)
	var next atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := next.Add(1)
		for pb.Next() {
			id := fmt.Sprintf("d%d", int(i)%docs)
			if i%64 == 0 {
				cache.Invalidate(id, "u")
			} else if _, err := cache.Read(id, "u"); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
