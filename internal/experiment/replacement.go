package experiment

import (
	"fmt"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/replace"
	"placeless/internal/repo"
	"placeless/internal/trace"
)

// ReplacementConfig parameterizes the policy ablation (E2).
type ReplacementConfig struct {
	// Docs is the document population.
	Docs int
	// Reads is the access count.
	Reads int
	// Alpha is the Zipf skew.
	Alpha float64
	// CapacityFrac sizes the cache as a fraction of the total
	// document bytes.
	CapacityFrac float64
	// Seed fixes workload and sizes.
	Seed int64
}

// DefaultReplacementConfig returns the configuration used by plbench
// and the benchmarks: heterogeneous sources and costs with a cache an
// order of magnitude smaller than the working set.
func DefaultReplacementConfig() ReplacementConfig {
	return ReplacementConfig{Docs: 120, Reads: 4000, Alpha: 1.1, CapacityFrac: 0.10, Seed: 1}
}

// ReplacementRow is one policy row of experiment E2.
type ReplacementRow struct {
	// Policy is the replacement policy name.
	Policy string
	// HitRatio is the object hit ratio.
	HitRatio float64
	// ByteHitRatio weights hits by document size.
	ByteHitRatio float64
	// MeanRead is the mean simulated read latency.
	MeanRead time.Duration
	// Evictions counts policy-driven removals.
	Evictions int64
}

// ReplacementResult is experiment E2's output.
type ReplacementResult struct {
	Config ReplacementConfig
	Rows   []ReplacementRow
}

// TableData returns the result's header and rows, the shared
// source for the text-table and CSV renderings.
func (r ReplacementResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Policy,
			fmtPct(row.HitRatio),
			fmtPct(row.ByteHitRatio),
			fmtMS(row.MeanRead),
			fmt.Sprintf("%d", row.Evictions),
		})
	}
	return []string{"policy", "hit ratio", "byte hit ratio", "mean read (ms)", "evictions"}, rows
}

// buildReplacementWorld populates a world with cfg.Docs documents
// spread across the three source classes, heavy-tailed sizes, and a
// sprinkling of transform properties so replacement costs vary the way
// the paper intends (source latency + property execution time).
func buildReplacementWorld(cfg ReplacementConfig, policy replace.Policy) (*World, map[string]int64, error) {
	opts := DefaultCacheOptions()
	opts.Policy = policy
	sizes := trace.Sizes(cfg.Docs, 1024, cfg.Seed)
	var total int64
	for _, s := range sizes {
		total += s
	}
	opts.Capacity = int64(float64(total) * cfg.CapacityFrac)
	w := NewWorld(cfg.Seed, opts)

	for i := 0; i < cfg.Docs; i++ {
		id := trace.DocID(i)
		content := Content(id, sizes[id])
		var err error
		var origin *repo.Web
		switch i % 3 {
		case 0:
			err = w.AddLocalDoc(id, "owner", content)
		case 1:
			origin = w.LAN
		default:
			origin = w.WAN
		}
		if origin != nil {
			err = w.AddWebDoc(origin, id, "owner", content)
		}
		if err != nil {
			return nil, nil, err
		}
		if _, err := w.Space.AddReference(id, "reader"); err != nil {
			return nil, nil, err
		}
		// Every fourth document carries an expensive property chain,
		// raising its replacement cost beyond pure retrieval.
		if i%4 == 0 {
			p := property.NewTranslator(25 * time.Millisecond)
			if err := w.Space.Attach(id, "reader", docspace.Personal, p); err != nil {
				return nil, nil, err
			}
		}
	}
	return w, sizes, nil
}

// RunReplacement replays one Zipf trace against each replacement
// policy (GDS — the paper's choice — plus the baselines) and reports
// hit ratios and mean latency. The paper predicts cost-aware policies
// win on latency because they keep expensive-to-rebuild documents.
func RunReplacement(cfg ReplacementConfig) (ReplacementResult, error) {
	res := ReplacementResult{Config: cfg}
	accesses := trace.Generate(trace.Config{
		Docs: cfg.Docs, Users: 1, Length: cfg.Reads, Alpha: cfg.Alpha, Seed: cfg.Seed,
	})
	for _, mk := range replace.All() {
		policy := mk()
		w, sizes, err := buildReplacementWorld(cfg, policy)
		if err != nil {
			return res, err
		}
		var readHist obs.Histogram
		var hitBytes, totalBytes int64
		for _, a := range accesses {
			before := w.Cache.Stats()
			d := w.Timed(func() {
				if _, err := w.Cache.Read(a.Doc, "reader"); err != nil {
					panic(err)
				}
			})
			readHist.Observe(d)
			after := w.Cache.Stats()
			totalBytes += sizes[a.Doc]
			if after.Hits > before.Hits {
				hitBytes += sizes[a.Doc]
			}
		}
		st := w.Cache.Stats()
		row := ReplacementRow{
			Policy:    policy.Name(),
			HitRatio:  st.HitRatio(),
			MeanRead:  readHist.Mean(),
			Evictions: st.Evictions,
		}
		if totalBytes > 0 {
			row.ByteHitRatio = float64(hitBytes) / float64(totalBytes)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
