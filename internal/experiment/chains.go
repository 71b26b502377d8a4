package experiment

import (
	"fmt"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/property"
)

// ChainsConfig parameterizes the property-chain overhead experiment
// (E5).
type ChainsConfig struct {
	// MaxChain is the longest chain measured (0..MaxChain).
	MaxChain int
	// PropCost is the simulated execution time of each chained
	// property.
	PropCost time.Duration
	// DocSize is the document size in bytes.
	DocSize int64
	// Seed drives jitter.
	Seed int64
}

// DefaultChainsConfig returns the configuration used by plbench and
// the benchmarks.
func DefaultChainsConfig() ChainsConfig {
	return ChainsConfig{MaxChain: 8, PropCost: 5 * time.Millisecond, DocSize: 8192, Seed: 1}
}

// ChainRow is one chain-length row of experiment E5.
type ChainRow struct {
	// Chain is the number of active transform properties attached.
	Chain int
	// NoCache is the direct read-path latency.
	NoCache time.Duration
	// Hit is the cache-hit latency.
	Hit time.Duration
	// ReplacementCost is the cost the read path accumulated (what
	// GDS sees).
	ReplacementCost time.Duration
}

// ChainsResult is experiment E5's output.
type ChainsResult struct {
	Config ChainsConfig
	Rows   []ChainRow
}

// TableData returns the result's header and rows, the shared
// source for the text-table and CSV renderings.
func (r ChainsResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Chain),
			fmtMS(row.NoCache),
			fmtMS(row.Hit),
			fmtMS(row.ReplacementCost),
		})
	}
	return []string{"chain length", "no cache (ms)", "cache hit (ms)", "replacement cost (ms)"}, rows
}

// RunChains measures read latency against the number of chained
// active properties, cached and uncached. The headline claim of the
// paper's §4 — "caching can effectively hide the latency of a
// property-based system like Placeless" — appears here as a flat hit
// curve against a linearly growing no-cache curve; the replacement
// cost grows with the chain, which is exactly the signal GDS uses to
// keep such documents resident.
func RunChains(cfg ChainsConfig) (ChainsResult, error) {
	res := ChainsResult{Config: cfg}
	for n := 0; n <= cfg.MaxChain; n++ {
		w := NewWorld(cfg.Seed, DefaultCacheOptions())
		id := fmt.Sprintf("chained-%d", n)
		if err := w.AddWebDoc(w.LAN, id, "eyal", Content(id, cfg.DocSize)); err != nil {
			return res, err
		}
		for i := 0; i < n; i++ {
			p := &property.Transformer{
				Base:          property.Base{PropName: fmt.Sprintf("step-%d", i)},
				ReadTransform: func(b []byte) []byte { return b },
				ExecCost:      cfg.PropCost,
			}
			if err := w.Space.Attach(id, "eyal", docspace.Personal, p); err != nil {
				return res, err
			}
		}

		var cost time.Duration
		noCache := w.Timed(func() {
			_, rr, err := w.Space.ReadDocument(id, "eyal")
			if err != nil {
				panic(err)
			}
			cost = rr.Cost
		})
		if _, err := w.Cache.Read(id, "eyal"); err != nil {
			return res, err
		}
		hit := w.Timed(func() {
			if _, err := w.Cache.Read(id, "eyal"); err != nil {
				panic(err)
			}
		})
		res.Rows = append(res.Rows, ChainRow{
			Chain: n, NoCache: noCache, Hit: hit, ReplacementCost: cost,
		})
	}
	return res, nil
}
