package experiment

import (
	"fmt"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/trace"
)

// CacheabilityConfig parameterizes the cacheability-mix experiment
// (E4).
type CacheabilityConfig struct {
	// Docs is the document population.
	Docs int
	// Reads is the access count.
	Reads int
	// Seed fixes the workload.
	Seed int64
}

// DefaultCacheabilityConfig returns the configuration used by plbench
// and the benchmarks.
func DefaultCacheabilityConfig() CacheabilityConfig {
	return CacheabilityConfig{Docs: 30, Reads: 1500, Seed: 1}
}

// CacheabilityRow is one mix row of experiment E4.
type CacheabilityRow struct {
	// Mix labels the population composition.
	Mix string
	// UncacheableFrac and WithEventsFrac describe the mix; the
	// remainder is unrestricted.
	UncacheableFrac, WithEventsFrac float64
	// HitRatio is the object hit ratio achieved.
	HitRatio float64
	// MeanRead is the mean read latency.
	MeanRead time.Duration
	// EventsForwarded counts operations forwarded for CacheWithEvents
	// entries.
	EventsForwarded int64
}

// CacheabilityResult is experiment E4's output.
type CacheabilityResult struct {
	Config CacheabilityConfig
	Rows   []CacheabilityRow
}

// TableData returns the result's header and rows, the shared
// source for the text-table and CSV renderings.
func (r CacheabilityResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Mix,
			fmtPct(row.HitRatio),
			fmtMS(row.MeanRead),
			fmt.Sprintf("%d", row.EventsForwarded),
		})
	}
	return []string{"mix (unrestricted/with-events/uncacheable)", "hit ratio", "mean read (ms)", "events forwarded"}, rows
}

// RunCacheability sweeps the population mix across the paper's three
// cacheability indicators: unrestricted documents, documents whose
// properties need operation events forwarded (audit trails), and
// uncacheable documents (live feeds). It shows the middle option's
// value: event-needing documents still enjoy cache-hit latency instead
// of being made uncacheable as the WWW solutions of the era did.
func RunCacheability(cfg CacheabilityConfig) (CacheabilityResult, error) {
	res := CacheabilityResult{Config: cfg}
	mixes := []struct {
		label               string
		uncacheable, events float64
	}{
		{"100/0/0", 0, 0},
		{"70/30/0", 0, 0.3},
		{"70/0/30", 0.3, 0},
		{"40/30/30", 0.3, 0.3},
		{"0/100/0", 0, 1},
		{"0/0/100", 1, 0},
	}
	accesses := trace.Generate(trace.Config{
		Docs: cfg.Docs, Users: 1, Length: cfg.Reads, Alpha: 1.1, Seed: cfg.Seed,
	})
	for _, mix := range mixes {
		w := NewWorld(cfg.Seed, DefaultCacheOptions())
		nUncacheable := int(mix.uncacheable * float64(cfg.Docs))
		nEvents := int(mix.events * float64(cfg.Docs))
		for i := 0; i < cfg.Docs; i++ {
			id := trace.DocID(i)
			switch {
			case i < nUncacheable:
				// Live-feed-backed: the bit-provider votes
				// uncacheable.
				if _, err := w.Space.CreateDocument(id, "owner", &property.RepoBitProvider{
					Repo: w.Feed, Path: "/" + id, Vote: property.Uncacheable,
				}); err != nil {
					return res, err
				}
			case i < nUncacheable+nEvents:
				if err := w.AddLocalDoc(id, "owner", Content(id, 4096)); err != nil {
					return res, err
				}
				if err := w.Space.Attach(id, "", docspace.Universal, property.NewAuditTrail()); err != nil {
					return res, err
				}
			default:
				if err := w.AddLocalDoc(id, "owner", Content(id, 4096)); err != nil {
					return res, err
				}
			}
			if _, err := w.Space.AddReference(id, "reader"); err != nil {
				return res, err
			}
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
		res.Rows = append(res.Rows, CacheabilityRow{
			Mix:             mix.label,
			UncacheableFrac: mix.uncacheable,
			WithEventsFrac:  mix.events,
			HitRatio:        st.HitRatio(),
			MeanRead:        readHist.Mean(),
			EventsForwarded: st.EventsForwarded,
		})
	}
	return res, nil
}
