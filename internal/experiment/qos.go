package experiment

import (
	"fmt"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
	"placeless/internal/trace"
)

// QoSConfig parameterizes the QoS-replacement experiment (E6).
type QoSConfig struct {
	// BackgroundDocs is the competing document population.
	BackgroundDocs int
	// Reads is the background access count.
	Reads int
	// QoSEvery interleaves one QoS-document read per this many
	// background reads.
	QoSEvery int
	// CostFactor is the QoS property's replacement-cost inflation.
	CostFactor float64
	// Seed fixes the workload.
	Seed int64
}

// DefaultQoSConfig returns the configuration used by plbench and the
// benchmarks.
func DefaultQoSConfig() QoSConfig {
	// CostFactor must out-pace Greedy-Dual aging between consecutive
	// QoS-document accesses; 400× holds a comfortable margin over the
	// background eviction churn.
	return QoSConfig{BackgroundDocs: 60, Reads: 3000, QoSEvery: 25, CostFactor: 400, Seed: 1}
}

// QoSRow is one configuration row of experiment E6.
type QoSRow struct {
	// Config labels the run (qos-off / qos-on).
	Config string
	// QoSHitRatio is the hit ratio for the latency-sensitive
	// document.
	QoSHitRatio float64
	// QoSMeanRead is its mean read latency.
	QoSMeanRead time.Duration
	// QoSWorstRead is its worst read latency (the QoS-relevant
	// number for "access time < .25 seconds").
	QoSWorstRead time.Duration
	// MetTarget reports whether every post-warmup read met the
	// 250 ms target.
	MetTarget bool
	// OverallHitRatio is the whole-cache hit ratio, to show the
	// background cost of pinning.
	OverallHitRatio float64
}

// QoSResult is experiment E6's output.
type QoSResult struct {
	Config QoSConfig
	Rows   []QoSRow
}

// TableData returns the result's header and rows, the shared
// source for the text-table and CSV renderings.
func (r QoSResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Config,
			fmtPct(row.QoSHitRatio),
			fmtMS(row.QoSMeanRead),
			fmtMS(row.QoSWorstRead),
			fmt.Sprintf("%v", row.MetTarget),
			fmtPct(row.OverallHitRatio),
		})
	}
	return []string{"config", "qos-doc hit ratio", "qos-doc mean (ms)", "qos-doc worst (ms)", "met <250ms", "overall hit ratio"}, rows
}

// RunQoS evaluates the paper's §5 proposal that QoS properties ("access
// time < .25 seconds") influence cache replacement by inflating
// replacement costs. A slow WAN document carrying the QoS property
// competes against Zipf background traffic in a small cache; with the
// property on, its entries survive pressure and its worst-case access
// time stays under the target after warmup.
func RunQoS(cfg QoSConfig) (QoSResult, error) {
	res := QoSResult{Config: cfg}
	for _, enabled := range []bool{false, true} {
		row, err := runQoSMode(cfg, enabled)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runQoSMode(cfg QoSConfig, enabled bool) (QoSRow, error) {
	// Background documents are small but carry expensive property
	// chains, so their GDS priority (cost/size) naturally exceeds the
	// QoS document's — plain GDS will sacrifice the QoS document
	// under pressure unless its property inflates the cost.
	const bgSize = 1200
	total := int64(cfg.BackgroundDocs) * bgSize
	opts := DefaultCacheOptions()
	opts.Capacity = total / 5
	w := NewWorld(cfg.Seed, opts)

	// The latency-sensitive document lives on a far-away server with
	// mtime-based consistency (a TTL source would force periodic
	// refetches no replacement policy can avoid).
	const qosDoc = "portfolio"
	farsrv := repo.NewMem("farsrv", w.Clk, simnet.WAN(cfg.Seed+9))
	if err := farsrv.Store("/"+qosDoc, Content(qosDoc, 8192)); err != nil {
		return QoSRow{}, err
	}
	if _, err := w.Space.CreateDocument(qosDoc, "eyal", &property.RepoBitProvider{Repo: farsrv, Path: "/" + qosDoc}); err != nil {
		return QoSRow{}, err
	}
	if enabled {
		q := property.NewQoS(250*time.Millisecond, cfg.CostFactor)
		if err := w.Space.Attach(qosDoc, "eyal", docspace.Personal, q); err != nil {
			return QoSRow{}, err
		}
	}
	for i := 0; i < cfg.BackgroundDocs; i++ {
		id := trace.DocID(i)
		if err := w.AddLocalDoc(id, "owner", Content(id, bgSize)); err != nil {
			return QoSRow{}, err
		}
		if _, err := w.Space.AddReference(id, "eyal"); err != nil {
			return QoSRow{}, err
		}
		p := &property.Transformer{
			Base:          property.Base{PropName: "heavy-transform"},
			ReadTransform: func(b []byte) []byte { return b },
			ExecCost:      100 * time.Millisecond,
		}
		if err := w.Space.Attach(id, "eyal", docspace.Personal, p); err != nil {
			return QoSRow{}, err
		}
	}

	accesses := trace.Generate(trace.Config{
		Docs: cfg.BackgroundDocs, Users: 1, Length: cfg.Reads, Alpha: 1.05, Seed: cfg.Seed,
	})
	var qosHist obs.Histogram
	var samples []time.Duration
	var qosHits, qosReads int64
	met := true
	for i, a := range accesses {
		if _, err := w.Cache.Read(a.Doc, "eyal"); err != nil {
			return QoSRow{}, err
		}
		if cfg.QoSEvery > 0 && i%cfg.QoSEvery == cfg.QoSEvery-1 {
			before := w.Cache.Stats()
			d := w.Timed(func() {
				if _, err := w.Cache.Read(qosDoc, "eyal"); err != nil {
					panic(err)
				}
			})
			after := w.Cache.Stats()
			qosReads++
			if after.Hits > before.Hits {
				qosHits++
			}
			if qosReads > 1 { // skip the compulsory first miss
				qosHist.Observe(d)
				samples = append(samples, d)
				if d > 250*time.Millisecond {
					met = false
				}
			}
		}
	}
	st := w.Cache.Stats()
	row := QoSRow{
		Config:          map[bool]string{false: "qos-off", true: "qos-on"}[enabled],
		QoSMeanRead:     qosHist.Mean(),
		QoSWorstRead:    percentile(samples, 100),
		MetTarget:       met,
		OverallHitRatio: st.HitRatio(),
	}
	if qosReads > 0 {
		row.QoSHitRatio = float64(qosHits) / float64(qosReads)
	}
	return row, nil
}
