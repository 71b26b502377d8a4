package experiment

import (
	"fmt"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
)

// CollectionConfig parameterizes the related-document prefetching
// experiment (E8).
type CollectionConfig struct {
	// Members is the collection size.
	Members int
	// DocSize is each member's size in bytes.
	DocSize int64
	// Seed drives jitter.
	Seed int64
}

// DefaultCollectionConfig returns the configuration used by plbench
// and the benchmarks.
func DefaultCollectionConfig() CollectionConfig {
	return CollectionConfig{Members: 8, DocSize: 4096, Seed: 1}
}

// CollectionRow is one configuration row of experiment E8.
type CollectionRow struct {
	// Config labels the run (prefetch-off / prefetch-on).
	Config string
	// FirstRead is the latency of the first member read (which pays
	// for the prefetching when enabled).
	FirstRead time.Duration
	// MeanSubsequent is the mean first-touch latency of the
	// remaining members.
	MeanSubsequent time.Duration
	// TotalWalk is the simulated time to read every member once.
	TotalWalk time.Duration
	// Prefetches counts prefetched documents.
	Prefetches int64
}

// CollectionResult is experiment E8's output.
type CollectionResult struct {
	Config CollectionConfig
	Rows   []CollectionRow
}

// TableData returns the result's header and rows, the shared
// source for the text-table and CSV renderings.
func (r CollectionResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Config,
			fmtMS(row.FirstRead),
			fmtMS(row.MeanSubsequent),
			fmtMS(row.TotalWalk),
			fmt.Sprintf("%d", row.Prefetches),
		})
	}
	return []string{"config", "first read (ms)", "later members (ms)", "whole walk (ms)", "prefetches"}, rows
}

// RunCollection measures the paper's §5 open question about caching
// for related documents: a user walks through every member of a
// collection of far-away (WAN) documents. With the collection property
// feeding the cache's prefetcher, the first read pays for warming the
// whole set and every later member is a hit; without it, every member
// pays its own WAN round trip.
func RunCollection(cfg CollectionConfig) (CollectionResult, error) {
	res := CollectionResult{Config: cfg}
	for _, enabled := range []bool{false, true} {
		opts := DefaultCacheOptions()
		opts.DisablePrefetch = !enabled
		w := NewWorld(cfg.Seed, opts)

		members := make([]string, cfg.Members)
		col := property.NewCollection("report")
		for i := range members {
			id := fmt.Sprintf("section-%02d", i)
			members[i] = id
			if err := w.AddWebDoc(w.WAN, id, "reader", Content(id, cfg.DocSize)); err != nil {
				return res, err
			}
			col.Add(id)
		}
		for _, id := range members {
			if err := w.Space.Attach(id, "", docspace.Universal, col); err != nil {
				return res, err
			}
		}

		var walk obs.Histogram
		walkStart := w.Clk.Now()
		var first time.Duration
		for i, id := range members {
			d := w.Timed(func() {
				if _, err := w.Cache.Read(id, "reader"); err != nil {
					panic(err)
				}
			})
			if i == 0 {
				first = d
			} else {
				walk.Observe(d)
			}
		}
		row := CollectionRow{
			Config:         map[bool]string{false: "prefetch-off", true: "prefetch-on"}[enabled],
			FirstRead:      first,
			MeanSubsequent: walk.Mean(),
			TotalWalk:      w.Clk.Now().Sub(walkStart),
			Prefetches:     w.Cache.Stats().Prefetches,
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
