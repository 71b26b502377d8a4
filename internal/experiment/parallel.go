package experiment

import (
	"fmt"
	"sync"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
	"placeless/internal/trace"
)

// ParallelConfig parameterizes the parallel-throughput experiment
// (E11): concurrent hit scaling of the sharded cache core against the
// pre-sharding global-mutex discipline, plus single-flight miss
// coalescing.
type ParallelConfig struct {
	// Docs is the warm working set each goroutine strides over.
	Docs int
	// Goroutines lists the concurrency levels to measure.
	Goroutines []int
	// OpsPerGoroutine is the hit count each goroutine performs.
	OpsPerGoroutine int
	// HitCost is the paper's per-hit access cost, slept on the REAL
	// clock so the experiment can observe whether concurrent hits
	// overlap (sharded core) or serialize (seed's mutex held across
	// the sleep). Wall-clock timing is inherently machine-dependent;
	// the speedup column, not the absolute rate, is the result.
	HitCost time.Duration
	// FillCost is the real-clock miss fill cost for the coalescing
	// phase.
	FillCost time.Duration
	// Seed fixes document sizes.
	Seed int64
}

// DefaultParallelConfig returns the configuration used by plbench.
func DefaultParallelConfig() ParallelConfig {
	return ParallelConfig{
		Docs:            64,
		Goroutines:      []int{1, 2, 4, 8},
		OpsPerGoroutine: 50,
		HitCost:         200 * time.Microsecond,
		FillCost:        300 * time.Microsecond,
		Seed:            1,
	}
}

// ParallelRow is one concurrency level's measurements.
type ParallelRow struct {
	// Goroutines is the concurrency level.
	Goroutines int
	// SeedMutexRate is aggregate hits/sec with one global mutex held
	// across each whole read, hit-cost sleep included (the seed
	// discipline).
	SeedMutexRate float64
	// ShardedRate is aggregate hits/sec through the sharded core.
	ShardedRate float64
	// Speedup is ShardedRate / SeedMutexRate.
	Speedup float64
	// ColdFetches is how many read-path executions N concurrent
	// misses on one cold document performed (single-flight: 1).
	ColdFetches int64
	// Coalesced is how many of those misses joined the leader's
	// flight instead of fetching.
	Coalesced int64
}

// ParallelResult is experiment E11's output.
type ParallelResult struct {
	Config ParallelConfig
	Rows   []ParallelRow
}

// TableData returns the result's header and rows, the shared source
// for the text-table and CSV renderings.
func (r ParallelResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Goroutines),
			fmt.Sprintf("%.0f", row.SeedMutexRate),
			fmt.Sprintf("%.0f", row.ShardedRate),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%d", row.ColdFetches),
			fmt.Sprintf("%d", row.Coalesced),
		})
	}
	return []string{"goroutines", "seed-mutex hits/s", "sharded hits/s", "speedup", "cold fetches", "coalesced"}, rows
}

// parallelWorld builds a REAL-clock cache over a zero-latency source
// with cfg.Docs warm documents. Real time is required because the
// experiment measures whether per-hit costs overlap across goroutines;
// on the virtual clock every sleep is free and all disciplines tie.
func parallelWorld(cfg ParallelConfig, shards int) (*core.Cache, error) {
	clk := clock.Real{}
	src := repo.NewMem("m", clk, simnet.NewPath("free", cfg.Seed))
	space := docspace.New(clk, nil)
	cache := core.New(space, core.Options{
		Name:    "parallel",
		Shards:  shards,
		HitCost: cfg.HitCost,
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

// measureHits runs g goroutines × cfg.OpsPerGoroutine striding reads
// over the warm set and returns the aggregate rate in hits/sec.
func measureHits(cfg ParallelConfig, g int, read func(doc, user string) ([]byte, error)) (float64, error) {
	var wg sync.WaitGroup
	errs := make([]error, g)
	start := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for op := 0; op < cfg.OpsPerGoroutine; op++ {
				if _, err := read(trace.DocID((i*31+op)%cfg.Docs), "u"); err != nil {
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
	total := float64(g * cfg.OpsPerGoroutine)
	return total / elapsed.Seconds(), nil
}

// RunParallel measures E11. For each concurrency level it compares the
// sharded core against a baseline that reproduces the seed's
// discipline — one global mutex held across the entire read, per-hit
// cost sleep included — and additionally starts that many concurrent
// misses on one cold document to count read-path executions under
// single-flight coalescing.
func RunParallel(cfg ParallelConfig) (ParallelResult, error) {
	res := ParallelResult{Config: cfg}
	for _, g := range cfg.Goroutines {
		row := ParallelRow{Goroutines: g}

		// Seed-style baseline: serialize whole reads behind one mutex.
		cache, err := parallelWorld(cfg, 1)
		if err != nil {
			return res, err
		}
		var mu sync.Mutex
		row.SeedMutexRate, err = measureHits(cfg, g, func(doc, user string) ([]byte, error) {
			mu.Lock()
			defer mu.Unlock()
			return cache.Read(doc, user)
		})
		if err != nil {
			return res, err
		}

		// Sharded core: hits overlap, locks are per-stripe.
		cache, err = parallelWorld(cfg, 0)
		if err != nil {
			return res, err
		}
		row.ShardedRate, err = measureHits(cfg, g, cache.Read)
		if err != nil {
			return res, err
		}
		if row.SeedMutexRate > 0 {
			row.Speedup = row.ShardedRate / row.SeedMutexRate
		}

		// Single-flight: g concurrent misses on one cold document.
		const id = "cold"
		src := repo.NewMem("m2", clock.Real{}, simnet.NewPath("free", cfg.Seed+1))
		space := docspace.New(clock.Real{}, nil)
		cold := core.New(space, core.Options{Name: "cold", FillCost: cfg.FillCost})
		if err := src.Store("/"+id, Content(id, 4096)); err != nil {
			return res, err
		}
		if _, err := space.CreateDocument(id, "u", &property.RepoBitProvider{Repo: src, Path: "/" + id}); err != nil {
			return res, err
		}
		var wg sync.WaitGroup
		readErrs := make([]error, g)
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, readErrs[i] = cold.Read(id, "u")
			}(i)
		}
		wg.Wait()
		for _, err := range readErrs {
			if err != nil {
				return res, err
			}
		}
		st := cold.Stats()
		row.ColdFetches = st.Misses
		row.Coalesced = st.CoalescedMisses

		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
