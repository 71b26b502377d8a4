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

// PrefixConfig parameterizes the longest-shared-prefix pipeline
// experiment (E17): N users share one document whose personal chains
// overlap — every user runs the same expensive translate property
// before their own cheap watermark. The N-cut pipeline shares the
// translate output across users as well as the universal stage, making
// miss-path compute scale with the number of distinct chain prefixes
// instead of the number of users.
type PrefixConfig struct {
	// Users lists the fan-out levels to measure.
	Users []int
	// DocSize is the document size in bytes.
	DocSize int64
	// UniversalCost is the simulated execution cost of each of the two
	// universal transforms.
	UniversalCost time.Duration
	// SharedCost is the simulated cost of the translate property every
	// user's personal chain starts with — the shared personal prefix.
	SharedCost time.Duration
	// PersonalCost is the simulated cost of each user's watermark, the
	// only truly per-user segment.
	PersonalCost time.Duration
	// Seed fixes simulated jitter.
	Seed int64
}

// DefaultPrefixConfig returns the configuration used by plbench.
func DefaultPrefixConfig() PrefixConfig {
	// 4 KiB keeps the raw-bit fetch (which every miss pays regardless
	// of mode — the source signature is half of every memo key) from
	// flooring the per-read time and hiding the compute sharing under
	// measurement.
	return PrefixConfig{
		Users:         []int{8, 16, 32, 64, 96},
		DocSize:       4 << 10,
		UniversalCost: 2 * time.Millisecond,
		SharedCost:    4 * time.Millisecond,
		PersonalCost:  100 * time.Microsecond,
		Seed:          1,
	}
}

// PrefixRow is one fan-out level's measurements of the cold miss storm
// (every user reads once, nothing warm).
type PrefixRow struct {
	// Users is the fan-out level.
	Users int
	// FullMiss is the mean per-read simulated miss time with
	// memoization off.
	FullMiss time.Duration
	// MultiMiss is the mean miss time under the N-cut prefix pipeline.
	MultiMiss time.Duration
	// SpeedupVsFull is FullMiss / MultiMiss.
	SpeedupVsFull float64
	// SharedRunsMulti counts executions of the shared translate
	// property under the pipeline: once per distinct prefix — one,
	// here — where the unmemoized storm runs it once per user.
	SharedRunsMulti int64
	// UniversalRuns is the universal-stage executions under the
	// pipeline.
	UniversalRuns int64
	// PrefixHits counts pipeline misses resumed from a cached prefix.
	PrefixHits int64
}

// PrefixResult is experiment E17's output.
type PrefixResult struct {
	Config PrefixConfig
	Rows   []PrefixRow
}

// TableData returns the result's header and rows, the shared source
// for the text-table and CSV renderings.
func (r PrefixResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Users),
			fmtMS(row.FullMiss),
			fmtMS(row.MultiMiss),
			fmt.Sprintf("%.2fx", row.SpeedupVsFull),
			fmt.Sprintf("%d", row.SharedRunsMulti),
			fmt.Sprintf("%d", row.UniversalRuns),
			fmt.Sprintf("%d", row.PrefixHits),
		})
	}
	return []string{"users", "full ms", "multi-cut ms", "vs full", "shared runs (multi)", "universal runs", "prefix hits"}, rows
}

// runPrefixMode builds one world — a two-transform universal chain and
// a personal chain of [shared translate, per-user watermark] — and
// drives the cold miss storm with memoization on or off: every user
// reads once, nothing warm. It returns the mean simulated read time,
// the number of times the shared translate executed, and the cache's
// final counters.
func runPrefixMode(cfg PrefixConfig, users int, memoize bool) (time.Duration, int64, core.Stats, error) {
	clk := clock.NewVirtual(epoch)
	src := repo.NewMem("localfs", clk, simnet.Local(cfg.Seed))
	space := docspace.New(clk, nil)
	cache := core.New(space, core.Options{Name: "prefix", Memoize: memoize})

	const id = "shared"
	if err := src.Store("/"+id, Content(id, cfg.DocSize)); err != nil {
		return 0, 0, core.Stats{}, err
	}
	if _, err := space.CreateDocument(id, memoUserID(0), &property.RepoBitProvider{Repo: src, Path: "/" + id}); err != nil {
		return 0, 0, core.Stats{}, err
	}
	for _, p := range []*property.Transformer{
		property.NewSpellCorrector(cfg.UniversalCost),
		property.NewLineNumberer(cfg.UniversalCost),
	} {
		if err := space.Attach(id, "", docspace.Universal, p); err != nil {
			return 0, 0, core.Stats{}, err
		}
	}

	// Every user's personal chain starts with the same translate
	// property (same dictionary, same memo key — an identical shared
	// prefix) followed by their own watermark. The instances are
	// per-user; the counter is shared, so it counts actual executions
	// of the translate transform across the whole storm.
	var sharedRuns int64
	for i := 0; i < users; i++ {
		u := memoUserID(i)
		if i > 0 {
			if _, err := space.AddReference(id, u); err != nil {
				return 0, 0, core.Stats{}, err
			}
		}
		tr := property.NewTranslator(cfg.SharedCost)
		inner := tr.ReadTransform
		tr.ReadTransform = func(b []byte) []byte {
			sharedRuns++
			return inner(b)
		}
		if err := space.Attach(id, u, docspace.Personal, tr); err != nil {
			return 0, 0, core.Stats{}, err
		}
		if err := space.Attach(id, u, docspace.Personal, property.NewWatermarker(u, cfg.PersonalCost)); err != nil {
			return 0, 0, core.Stats{}, err
		}
	}

	var total time.Duration
	for i := 0; i < users; i++ {
		start := clk.Now()
		if _, err := cache.Read(id, memoUserID(i)); err != nil {
			return 0, 0, core.Stats{}, err
		}
		total += clk.Now().Sub(start)
	}
	return total / time.Duration(users), sharedRuns, cache.Stats(), nil
}

// RunPrefix measures E17: the cold fan-out miss storm under no
// memoization and under the N-cut prefix pipeline. The claim under
// test: with overlapping personal chains, the pipeline executes the
// shared segment once per distinct prefix — not once per user — so the
// miss path's compute is sublinear in fan-out.
func RunPrefix(cfg PrefixConfig) (PrefixResult, error) {
	res := PrefixResult{Config: cfg}
	for _, users := range cfg.Users {
		fullMiss, _, _, err := runPrefixMode(cfg, users, false)
		if err != nil {
			return res, err
		}
		multiMiss, multiRuns, st, err := runPrefixMode(cfg, users, true)
		if err != nil {
			return res, err
		}
		row := PrefixRow{
			Users:           users,
			FullMiss:        fullMiss,
			MultiMiss:       multiMiss,
			SharedRunsMulti: multiRuns,
			UniversalRuns:   st.UniversalStageRuns,
			PrefixHits:      st.PrefixHits,
		}
		if multiMiss > 0 {
			row.SpeedupVsFull = float64(fullMiss) / float64(multiMiss)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
