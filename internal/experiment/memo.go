package experiment

import (
	"fmt"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

// MemoConfig parameterizes the universal-stage memoization experiment
// (E12): N users share one document whose universal transform chain
// dominates the read cost; each user's personal watermark forces a
// per-user cache miss, and the question is how much of that miss the
// content-addressed intermediate store recovers.
type MemoConfig struct {
	// Users lists the fan-out levels to measure.
	Users []int
	// DocSize is the document size in bytes.
	DocSize int64
	// PropCost is the simulated execution cost charged by each
	// universal transform (the chain has three).
	PropCost time.Duration
	// PersonalCost is the simulated cost of each user's watermark.
	PersonalCost time.Duration
	// Rounds is how many times every user re-misses (via per-user
	// invalidation) after the cold read.
	Rounds int
	// Seed fixes simulated jitter.
	Seed int64
}

// DefaultMemoConfig returns the configuration used by plbench.
func DefaultMemoConfig() MemoConfig {
	return MemoConfig{
		Users:        []int{1, 2, 4, 8, 16},
		DocSize:      16 << 10,
		PropCost:     2 * time.Millisecond,
		PersonalCost: 250 * time.Microsecond,
		Rounds:       4,
		Seed:         1,
	}
}

// MemoRow is one fan-out level's measurements.
type MemoRow struct {
	// Users is the fan-out level.
	Users int
	// FullMiss is the mean per-read simulated miss time with
	// memoization off: the whole chain re-executes for every user.
	FullMiss time.Duration
	// MemoMiss is the mean per-read simulated miss time with the
	// intermediate store on.
	MemoMiss time.Duration
	// Speedup is FullMiss / MemoMiss.
	Speedup float64
	// UniversalRuns is how many times the memoizing cache executed the
	// universal stage (one per (content, chain) key, regardless of N).
	UniversalRuns int64
	// IntermediateHits counts misses served from the intermediate.
	IntermediateHits int64
	// SavedBytes is the intermediate bytes the memoizing cache did not
	// recompute.
	SavedBytes int64
}

// MemoResult is experiment E12's output.
type MemoResult struct {
	Config MemoConfig
	Rows   []MemoRow
}

// TableData returns the result's header and rows, the shared source
// for the text-table and CSV renderings.
func (r MemoResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Users),
			fmtMS(row.FullMiss),
			fmtMS(row.MemoMiss),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%d", row.UniversalRuns),
			fmt.Sprintf("%d", row.IntermediateHits),
			fmt.Sprintf("%d", row.SavedBytes),
		})
	}
	return []string{"users", "full miss ms", "memo miss ms", "speedup", "universal runs", "inter hits", "saved bytes"}, rows
}

// memoUserID names the i-th reader.
func memoUserID(i int) string { return fmt.Sprintf("u%02d", i) }

// runMemoMode builds one world — a local document with a three-stage
// memoizable universal chain and a personal watermark per user — and
// drives the per-user miss storm, returning the mean simulated miss
// time and the cache's final counters.
func runMemoMode(cfg MemoConfig, users int, memoize bool) (time.Duration, core.Stats, error) {
	clk := clock.NewVirtual(epoch)
	src := repo.NewMem("localfs", clk, simnet.Local(cfg.Seed))
	space := docspace.New(clk, nil)
	cache := core.New(space, core.Options{Name: "memo", Memoize: memoize})

	const id = "shared"
	if err := src.Store("/"+id, Content(id, cfg.DocSize)); err != nil {
		return 0, core.Stats{}, err
	}
	if _, err := space.CreateDocument(id, memoUserID(0), &property.RepoBitProvider{Repo: src, Path: "/" + id}); err != nil {
		return 0, core.Stats{}, err
	}
	for _, p := range []*property.Transformer{
		property.NewSpellCorrector(cfg.PropCost),
		property.NewTranslator(cfg.PropCost),
		property.NewLineNumberer(cfg.PropCost),
	} {
		if err := space.Attach(id, "", docspace.Universal, p); err != nil {
			return 0, core.Stats{}, err
		}
	}
	for i := 0; i < users; i++ {
		u := memoUserID(i)
		if i > 0 {
			if _, err := space.AddReference(id, u); err != nil {
				return 0, core.Stats{}, err
			}
		}
		if err := space.Attach(id, u, docspace.Personal, property.NewWatermarker(u, cfg.PersonalCost)); err != nil {
			return 0, core.Stats{}, err
		}
	}

	var total time.Duration
	reads := 0
	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < users; i++ {
			u := memoUserID(i)
			cache.Invalidate(id, u) // personal change: entry gone, intermediate untouched
			start := clk.Now()
			if _, err := cache.Read(id, u); err != nil {
				return 0, core.Stats{}, err
			}
			total += clk.Now().Sub(start)
			reads++
		}
	}
	return total / time.Duration(reads), cache.Stats(), nil
}

// RunMemo measures E12: the same per-user miss storm with the
// intermediate store off and on. With it off, every miss pays the full
// universal chain; with it on, the universal stage executes once per
// (content, chain) key and every other miss pays only the personal
// suffix — the experiment quantifies that gap as fan-out grows.
func RunMemo(cfg MemoConfig) (MemoResult, error) {
	res := MemoResult{Config: cfg}
	for _, users := range cfg.Users {
		fullMiss, _, err := runMemoMode(cfg, users, false)
		if err != nil {
			return res, err
		}
		memoMiss, st, err := runMemoMode(cfg, users, true)
		if err != nil {
			return res, err
		}
		row := MemoRow{
			Users:            users,
			FullMiss:         fullMiss,
			MemoMiss:         memoMiss,
			UniversalRuns:    st.UniversalStageRuns,
			IntermediateHits: st.IntermediateHits,
			SavedBytes:       st.BytesRecomputedSaved,
		}
		if memoMiss > 0 {
			row.Speedup = float64(fullMiss) / float64(memoMiss)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
