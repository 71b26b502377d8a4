package experiment

import (
	"fmt"
	"sync"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
	"placeless/internal/trace"
)

// ObsConfig parameterizes the observability experiment (E13): what
// does attaching an Observer cost on the hot hit path, and what do the
// per-stage histograms actually show for a hit / miss / memoized-miss
// workload.
type ObsConfig struct {
	// Docs is the warm working set for the overhead phase.
	Docs int
	// Goroutines is the concurrency of both phases.
	Goroutines int
	// OpsPerGoroutine is the hit count per goroutine in the slept
	// overhead run.
	OpsPerGoroutine int
	// RawOpsPerGoroutine is the hit count per goroutine in the
	// zero-hit-cost run, where the instrumentation is the largest
	// relative fraction of the read (the worst case for overhead).
	RawOpsPerGoroutine int
	// HitCost is the paper's per-hit access cost for the slept run,
	// matching E11 and BenchmarkParallelHitThroughput so the overhead
	// number transfers.
	HitCost time.Duration
	// Users is the fan-out of the stage-visibility phase.
	Users int
	// PropCost is the real-clock execution cost of each of the three
	// universal transforms in the visibility phase.
	PropCost time.Duration
	// PersonalCost is the real-clock cost of each user's watermark.
	PersonalCost time.Duration
	// Seed fixes document contents.
	Seed int64
}

// DefaultObsConfig returns the configuration used by plbench.
func DefaultObsConfig() ObsConfig {
	return ObsConfig{
		Docs:               64,
		Goroutines:         4,
		OpsPerGoroutine:    200,
		RawOpsPerGoroutine: 20000,
		HitCost:            200 * time.Microsecond,
		Users:              8,
		PropCost:           200 * time.Microsecond,
		PersonalCost:       100 * time.Microsecond,
		Seed:               1,
	}
}

// ObsStageRow summarizes one stage histogram after the visibility
// workload.
type ObsStageRow struct {
	// Stage is the placeless_read_stage_duration_seconds label.
	Stage string
	// Count is how many reads recorded this stage.
	Count int64
	// P50 and P99 are bucket-bound quantile estimates.
	P50, P99 time.Duration
	// Mean is the exact mean over the recorded spans.
	Mean time.Duration
}

// ObsResult is experiment E13's output.
type ObsResult struct {
	Config ObsConfig
	// BareRate and ObservedRate are aggregate hits/sec with HitCost
	// slept, Observer detached vs attached.
	BareRate, ObservedRate float64
	// OverheadPct is 100 × (1 − ObservedRate/BareRate).
	OverheadPct float64
	// RawBareRate / RawObservedRate / RawOverheadPct repeat the
	// comparison with zero hit cost: nothing but the lock-and-copy hit
	// path, the worst case for relative instrumentation cost.
	RawBareRate, RawObservedRate float64
	RawOverheadPct               float64
	// Verdicts counts the visibility workload's reads by outcome.
	Verdicts map[string]int64
	// Stages summarizes every stage histogram the workload populated.
	Stages []ObsStageRow
}

// TableData returns the result's header and rows, the shared source
// for the text-table and CSV renderings. E13 mixes throughput scalars
// with per-stage timings, so it renders as (measurement, value) pairs.
func (r ObsResult) TableData() ([]string, [][]string) {
	rows := [][]string{
		{"bare hit rate (hit-cost slept)", fmt.Sprintf("%.0f hits/s", r.BareRate)},
		{"observed hit rate (hit-cost slept)", fmt.Sprintf("%.0f hits/s", r.ObservedRate)},
		{"instrumentation overhead (slept)", fmt.Sprintf("%.2f%%", r.OverheadPct)},
		{"bare hit rate (raw hit path)", fmt.Sprintf("%.0f hits/s", r.RawBareRate)},
		{"observed hit rate (raw hit path)", fmt.Sprintf("%.0f hits/s", r.RawObservedRate)},
		{"instrumentation overhead (raw)", fmt.Sprintf("%.2f%%", r.RawOverheadPct)},
	}
	for _, v := range obs.Verdicts() {
		if n := r.Verdicts[v]; n > 0 {
			rows = append(rows, []string{"reads: " + v, fmt.Sprintf("%d", n)})
		}
	}
	for _, s := range r.Stages {
		rows = append(rows, []string{
			"stage " + s.Stage,
			fmt.Sprintf("n=%d p50=%v p99=%v mean=%v", s.Count, s.P50, s.P99, s.Mean),
		})
	}
	return []string{"measurement", "value"}, rows
}

// obsWorld builds a real-clock cache over cfg.Docs warm documents,
// optionally instrumented.
func obsWorld(cfg ObsConfig, hitCost time.Duration, o *obs.Observer) (*core.Cache, error) {
	clk := clock.Real{}
	src := repo.NewMem("m", clk, simnet.NewPath("free", cfg.Seed))
	space := docspace.New(clk, nil)
	cache := core.New(space, core.Options{
		Name:     "obs",
		HitCost:  hitCost,
		Observer: o,
	})
	for i := 0; i < cfg.Docs; i++ {
		id := trace.DocID(i)
		if err := src.Store("/"+id, Content(id, 4096)); err != nil {
			return nil, err
		}
		if _, err := space.CreateDocument(id, "u", &property.RepoBitProvider{Repo: src, Path: "/" + id}); err != nil {
			return nil, err
		}
		if _, err := cache.Read(id, "u"); err != nil {
			return nil, err
		}
	}
	return cache, nil
}

// obsMeasureHits drives g goroutines × ops striding hits and returns
// the aggregate rate in hits/sec.
func obsMeasureHits(cfg ObsConfig, ops int, cache *core.Cache) (float64, error) {
	g := cfg.Goroutines
	var wg sync.WaitGroup
	errs := make([]error, g)
	start := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for op := 0; op < ops; op++ {
				if _, err := cache.Read(trace.DocID((i*31+op)%cfg.Docs), "u"); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(g*ops) / elapsed.Seconds(), nil
}

// obsOverheadPair measures bare-vs-observed hit throughput at one hit
// cost and returns (bare, observed, overhead%).
func obsOverheadPair(cfg ObsConfig, hitCost time.Duration, ops int) (float64, float64, float64, error) {
	bareCache, err := obsWorld(cfg, hitCost, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	bare, err := obsMeasureHits(cfg, ops, bareCache)
	if err != nil {
		return 0, 0, 0, err
	}
	obsCache, err := obsWorld(cfg, hitCost, obs.NewObserver())
	if err != nil {
		return 0, 0, 0, err
	}
	observed, err := obsMeasureHits(cfg, ops, obsCache)
	if err != nil {
		return 0, 0, 0, err
	}
	overhead := 0.0
	if bare > 0 {
		overhead = 100 * (1 - observed/bare)
	}
	return bare, observed, overhead, nil
}

// RunObs measures E13. Phase one quantifies instrumentation overhead:
// the E11 parallel-hit workload with the Observer detached vs
// attached, at the paper's 200µs hit cost and again with zero hit cost
// (worst case — the read is nothing but the lock-and-copy path). Phase
// two demonstrates stage visibility: a memoized fan-out workload whose
// cold miss, intermediate hits, warm hits, and coalesced cold storm
// populate every local stage histogram.
func RunObs(cfg ObsConfig) (ObsResult, error) {
	res := ObsResult{Config: cfg}
	var err error
	res.BareRate, res.ObservedRate, res.OverheadPct, err =
		obsOverheadPair(cfg, cfg.HitCost, cfg.OpsPerGoroutine)
	if err != nil {
		return res, err
	}
	res.RawBareRate, res.RawObservedRate, res.RawOverheadPct, err =
		obsOverheadPair(cfg, 0, cfg.RawOpsPerGoroutine)
	if err != nil {
		return res, err
	}

	// Stage visibility: one shared document, three-transform universal
	// chain, per-user watermarks — real clock so the histograms hold
	// wall time.
	o := obs.NewObserver()
	clk := clock.Real{}
	src := repo.NewMem("vis", clk, simnet.NewPath("free", cfg.Seed+1))
	space := docspace.New(clk, nil)
	cache := core.New(space, core.Options{Name: "vis", Memoize: true, Observer: o})
	const id = "shared"
	if err := src.Store("/"+id, Content(id, 16<<10)); err != nil {
		return res, err
	}
	if _, err := space.CreateDocument(id, memoUserID(0), &property.RepoBitProvider{Repo: src, Path: "/" + id}); err != nil {
		return res, err
	}
	for _, p := range []*property.Transformer{
		property.NewSpellCorrector(cfg.PropCost),
		property.NewTranslator(cfg.PropCost),
		property.NewLineNumberer(cfg.PropCost),
	} {
		if err := space.Attach(id, "", docspace.Universal, p); err != nil {
			return res, err
		}
	}
	for i := 0; i < cfg.Users; i++ {
		u := memoUserID(i)
		if i > 0 {
			if _, err := space.AddReference(id, u); err != nil {
				return res, err
			}
		}
		if err := space.Attach(id, u, docspace.Personal, property.NewWatermarker(u, cfg.PersonalCost)); err != nil {
			return res, err
		}
	}
	// Cold miss (full chain), then per-user memoized misses, then warm
	// hits for everyone.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < cfg.Users; i++ {
			if _, err := cache.Read(id, memoUserID(i)); err != nil {
				return res, err
			}
		}
	}
	// Coalesced storm on the first user after an invalidation, to
	// populate flight_wait.
	cache.Invalidate(id, memoUserID(0))
	var wg sync.WaitGroup
	storms := make([]error, cfg.Goroutines)
	for i := 0; i < cfg.Goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, storms[i] = cache.Read(id, memoUserID(0))
		}(i)
	}
	wg.Wait()
	for _, err := range storms {
		if err != nil {
			return res, err
		}
	}

	res.Verdicts = o.VerdictCounts()
	for _, stage := range obs.StageNames() {
		h := o.StageHistogram(stage)
		if h == nil || h.Count() == 0 {
			continue
		}
		res.Stages = append(res.Stages, ObsStageRow{
			Stage: stage,
			Count: h.Count(),
			P50:   h.Quantile(0.50),
			P99:   h.Quantile(0.99),
			Mean:  h.Mean(),
		})
	}
	return res, nil
}
