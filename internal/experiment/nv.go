package experiment

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"placeless/internal/obs"
	"placeless/internal/trace"
)

// ConsistencyMode selects which of the paper's two cache-consistency
// mechanisms a run uses (experiment E1, the tradeoff §5 leaves open).
type ConsistencyMode int

const (
	// VerifierOnly disables notifiers: every hit polls the source.
	VerifierOnly ConsistencyMode = iota
	// NotifierOnly disables verifiers: hits are free but changes
	// outside Placeless control go unseen.
	NotifierOnly
	// BothMechanisms runs notifiers and verifiers together (the
	// prototype's configuration).
	BothMechanisms
)

// String names the mode.
func (m ConsistencyMode) String() string {
	switch m {
	case VerifierOnly:
		return "verifier-only"
	case NotifierOnly:
		return "notifier-only"
	default:
		return "notifier+verifier"
	}
}

// NVConfig parameterizes the notifier-vs-verifier experiment.
type NVConfig struct {
	// Docs is the document population (all on the local store).
	Docs int
	// Reads is the number of read accesses.
	Reads int
	// UpdateEvery injects one update per this many reads.
	UpdateEvery int
	// OutsideFrac is the fraction of updates applied outside
	// Placeless control (direct repository writes); the rest go
	// through the Placeless write path.
	OutsideFrac float64
	// Seed fixes the workload.
	Seed int64
}

// DefaultNVConfig returns the configuration used by plbench and the
// benchmarks.
func DefaultNVConfig() NVConfig {
	return NVConfig{Docs: 20, Reads: 2000, UpdateEvery: 10, OutsideFrac: 0.5, Seed: 1}
}

// NVRow is one consistency-mode row of experiment E1.
type NVRow struct {
	// Mode is the consistency configuration.
	Mode ConsistencyMode
	// MeanHit is the mean latency of reads served as cache hits.
	MeanHit time.Duration
	// MeanRead is the mean latency across all reads.
	MeanRead time.Duration
	// HitRatio is hits/(hits+misses).
	HitRatio float64
	// StaleReads counts reads that returned content differing from
	// the repository's current content — the consistency cost.
	StaleReads int
	// Notifications is the invalidation load pushed onto the
	// Placeless system by notifiers.
	Notifications int64
	// VerifierPolls approximates verifier load: source metadata
	// round trips performed on hits.
	VerifierPolls int64
}

// NVResult is experiment E1's output.
type NVResult struct {
	Config NVConfig
	Rows   []NVRow
}

// TableData returns the result's header and rows, the shared
// source for the text-table and CSV renderings.
func (r NVResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Mode.String(),
			fmtMS(row.MeanHit),
			fmtMS(row.MeanRead),
			fmtPct(row.HitRatio),
			fmt.Sprintf("%d", row.StaleReads),
			fmt.Sprintf("%d", row.Notifications),
			fmt.Sprintf("%d", row.VerifierPolls),
		})
	}
	return []string{"mode", "hit (ms)", "read (ms)", "hit ratio", "stale reads", "notifications", "verifier polls"}, rows
}

// RunNotifierVerifier measures the paper's stated tradeoff: "verifier
// execution trades-off cache consistency with cache access time
// latencies, while notifier execution adds load to the Placeless
// system." A Zipf read stream over local documents is interleaved with
// updates, half through Placeless (notifier-visible) and half directly
// at the repository (verifier-visible only).
func RunNotifierVerifier(cfg NVConfig) (NVResult, error) {
	res := NVResult{Config: cfg}
	for _, mode := range []ConsistencyMode{VerifierOnly, NotifierOnly, BothMechanisms} {
		row, err := runNVMode(cfg, mode)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// NVSweepRow is one (update-rate, mode) point of the E1 sweep.
type NVSweepRow struct {
	// UpdateEvery is the update injection period (reads per update).
	UpdateEvery int
	// Rows holds the three consistency modes at this rate.
	Rows []NVRow
}

// NVSweepResult is the figure-style series: the notifier/verifier
// tradeoff as a function of how fast documents change.
type NVSweepResult struct {
	Base  NVConfig
	Rates []NVSweepRow
}

// TableData returns the sweep's header and rows (one row per
// rate×mode), the shared source for the text-table and CSV renderings.
func (r NVSweepResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rates)*3)
	for _, rate := range r.Rates {
		for _, row := range rate.Rows {
			rows = append(rows, []string{
				fmt.Sprintf("1/%d", rate.UpdateEvery),
				row.Mode.String(),
				fmtMS(row.MeanRead),
				fmtPct(row.HitRatio),
				fmt.Sprintf("%d", row.StaleReads),
				fmt.Sprintf("%d", row.Notifications),
			})
		}
	}
	return []string{"update rate", "mode", "read (ms)", "hit ratio", "stale reads", "notifications"}, rows
}

// RunNotifierVerifierSweep runs E1 across update rates, producing the
// series a figure would plot: as documents change faster, the
// notifier-only mode's staleness and the verifier modes' latency both
// grow, and the crossover between "cheap but stale" and "fresh but
// slow" moves.
func RunNotifierVerifierSweep(base NVConfig, updateEvery []int) (NVSweepResult, error) {
	res := NVSweepResult{Base: base}
	for _, rate := range updateEvery {
		cfg := base
		cfg.UpdateEvery = rate
		one, err := RunNotifierVerifier(cfg)
		if err != nil {
			return res, err
		}
		res.Rates = append(res.Rates, NVSweepRow{UpdateEvery: rate, Rows: one.Rows})
	}
	return res, nil
}

// DefaultNVSweepRates are the update periods plbench sweeps.
func DefaultNVSweepRates() []int { return []int{5, 10, 20, 50, 100} }

func runNVMode(cfg NVConfig, mode ConsistencyMode) (NVRow, error) {
	opts := DefaultCacheOptions()
	opts.DisableNotifiers = mode == VerifierOnly
	opts.DisableVerifiers = mode == NotifierOnly
	w := NewWorld(cfg.Seed, opts)

	// Current expected content per document, updated as the workload
	// mutates documents.
	expect := make(map[string][]byte, cfg.Docs)
	for i := 0; i < cfg.Docs; i++ {
		id := trace.DocID(i)
		content := Content(id, 2048)
		if err := w.AddLocalDoc(id, "owner", content); err != nil {
			return NVRow{}, err
		}
		if _, err := w.Space.AddReference(id, "reader"); err != nil {
			return NVRow{}, err
		}
		expect[id] = content
	}

	accesses := trace.Generate(trace.Config{
		Docs: cfg.Docs, Users: 1, Length: cfg.Reads, Alpha: 1.1, Seed: cfg.Seed,
	})

	var hitHist, readHist obs.Histogram
	stale := 0
	version := 0
	// The inside/outside coin uses its own deterministic stream so
	// every consistency mode sees the identical update schedule.
	coin := rand.New(rand.NewSource(cfg.Seed + 7))
	for i, a := range accesses {
		if cfg.UpdateEvery > 0 && i > 0 && i%cfg.UpdateEvery == 0 {
			version++
			id := a.Doc
			updated := append(Content(id, 2048), []byte(fmt.Sprintf("update-%d\n", version))...)
			outside := coin.Float64() < cfg.OutsideFrac
			if outside {
				w.Local.UpdateDirect("/"+id, updated)
			} else {
				if err := w.Space.WriteDocument(id, "owner", updated); err != nil {
					return NVRow{}, err
				}
			}
			expect[id] = updated
			w.Clk.Advance(time.Millisecond) // let mtimes move
		}
		before := w.Cache.Stats()
		var data []byte
		d := w.Timed(func() {
			var err error
			data, err = w.Cache.Read(a.Doc, "reader")
			if err != nil {
				panic(err)
			}
		})
		readHist.Observe(d)
		after := w.Cache.Stats()
		if after.Hits > before.Hits {
			hitHist.Observe(d)
		}
		if !bytes.Equal(data, expect[a.Doc]) {
			stale++
		}
	}
	st := w.Cache.Stats()

	// Verifier polls: each hit in verifier-enabled modes performs one
	// Stat per mtime verifier (one per entry).
	var polls int64
	if mode != NotifierOnly {
		polls = st.Hits + st.VerifierRejects
	}
	return NVRow{
		Mode:          mode,
		MeanHit:       hitHist.Mean(),
		MeanRead:      readHist.Mean(),
		HitRatio:      st.HitRatio(),
		StaleReads:    stale,
		Notifications: st.Notifications,
		VerifierPolls: polls,
	}, nil
}
