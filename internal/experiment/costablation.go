package experiment

import (
	"time"

	"placeless/internal/obs"
	"placeless/internal/replace"
	"placeless/internal/trace"
)

// CostAblationRow is one configuration row of experiment E9.
type CostAblationRow struct {
	// Config labels the cost signal (full / constant).
	Config string
	// HitRatio is the object hit ratio.
	HitRatio float64
	// MeanRead is the mean simulated read latency.
	MeanRead time.Duration
}

// CostAblationResult is experiment E9's output.
type CostAblationResult struct {
	Config ReplacementConfig
	Rows   []CostAblationRow
}

// TableData returns the result's header and rows, the shared
// source for the text-table and CSV renderings.
func (r CostAblationResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Config, fmtPct(row.HitRatio), fmtMS(row.MeanRead)})
	}
	return []string{"cost signal", "hit ratio", "mean read (ms)"}, rows
}

// constantCost is the ablation baseline: the policy it wraps is handed
// a fixed cost, whatever the read path accumulated, which reduces GDS
// to a size/recency policy.
type constantCost struct{ replace.Policy }

func (p constantCost) Insert(k string, size int64, _ time.Duration) {
	p.Policy.Insert(k, size, time.Millisecond)
}

// RunCostAblation isolates the paper's design decision to feed
// property-supplied costs into Greedy-Dual-Size: the same workload as
// E2 runs under GDS with the full accumulated cost (retrieval +
// property execution) and with a constant cost (reducing GDS to a
// size/recency policy). If the paper's mechanism matters, the full
// signal must win on mean latency.
func RunCostAblation(cfg ReplacementConfig) (CostAblationResult, error) {
	res := CostAblationResult{Config: cfg}
	accesses := trace.Generate(trace.Config{
		Docs: cfg.Docs, Users: 1, Length: cfg.Reads, Alpha: cfg.Alpha, Seed: cfg.Seed,
	})
	for _, run := range []struct {
		config string
		policy replace.Policy
	}{
		{"full", replace.NewGDS()},
		{"constant", constantCost{replace.NewGDS()}},
	} {
		w, _, err := buildReplacementWorld(cfg, run.policy)
		if err != nil {
			return res, err
		}
		var readHist obs.Histogram
		for _, a := range accesses {
			d := w.Timed(func() {
				if _, err := w.Cache.Read(a.Doc, "reader"); err != nil {
					panic(err)
				}
			})
			readHist.Observe(d)
		}
		st := w.Cache.Stats()
		res.Rows = append(res.Rows, CostAblationRow{
			Config:   run.config,
			HitRatio: st.HitRatio(),
			MeanRead: readHist.Mean(),
		})
	}
	return res, nil
}
