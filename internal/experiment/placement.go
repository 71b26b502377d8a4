package experiment

import (
	"fmt"
	"time"

	"placeless/internal/core"
	"placeless/internal/obs"
	"placeless/internal/remote"
	"placeless/internal/server"
	"placeless/internal/trace"
)

// PlacementConfig parameterizes the cache-placement experiment (E10).
type PlacementConfig struct {
	// Docs is the document population (WAN-hosted).
	Docs int
	// Reads is the access count.
	Reads int
	// DocSize is each document's size in bytes.
	DocSize int64
	// LinkCost is the simulated application→server hop charged per
	// request reaching the server.
	LinkCost time.Duration
	// AppCapacityFrac sizes the application cache relative to the
	// total document bytes (the app machine is small); the
	// server-side cache is unbounded.
	AppCapacityFrac float64
	// Seed fixes the workload.
	Seed int64
}

// DefaultPlacementConfig returns the configuration used by plbench and
// the benchmarks.
func DefaultPlacementConfig() PlacementConfig {
	return PlacementConfig{
		Docs: 40, Reads: 1200, DocSize: 4096,
		LinkCost: 5 * time.Millisecond, AppCapacityFrac: 0.25, Seed: 1,
	}
}

// PlacementRow is one deployment row of experiment E10.
type PlacementRow struct {
	// Placement labels the deployment.
	Placement string
	// MeanRead is the mean simulated read latency seen by the
	// application.
	MeanRead time.Duration
	// P99Read is the 99th-percentile latency.
	P99Read time.Duration
}

// PlacementResult is experiment E10's output.
type PlacementResult struct {
	Config PlacementConfig
	Rows   []PlacementRow
}

// TableData returns the result's header and rows, the shared
// source for the text-table and CSV renderings.
func (r PlacementResult) TableData() ([]string, [][]string) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Placement, fmtMS(row.MeanRead), fmtMS(row.P99Read)})
	}
	return []string{"placement", "mean read (ms)", "p99 read (ms)"}, rows
}

// RunPlacement measures the two cache placements the paper's
// prototype explored — "caches co-located with the Placeless server
// and on the machine where applications are run" — individually and
// combined, against no caching at all. WAN-hosted documents are read
// over a simulated application→server link; a server-side hit still
// pays that link, an application-side hit does not, and the small
// application cache backed by the large server cache gets the best of
// both.
func RunPlacement(cfg PlacementConfig) (PlacementResult, error) {
	res := PlacementResult{Config: cfg}
	for _, mode := range []string{"no-cache", "server-only", "app-only", "app+server"} {
		row, err := runPlacementMode(cfg, mode)
		if err != nil {
			return res, fmt.Errorf("%s: %w", mode, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func runPlacementMode(cfg PlacementConfig, mode string) (PlacementRow, error) {
	w := NewWorld(cfg.Seed, DefaultCacheOptions())
	for i := 0; i < cfg.Docs; i++ {
		id := trace.DocID(i)
		if err := w.AddWebDoc(w.WAN, id, "reader", Content(id, cfg.DocSize)); err != nil {
			return PlacementRow{}, err
		}
	}

	var srv *server.Server
	switch mode {
	case "server-only", "app+server":
		serverCache := core.New(w.Space, core.Options{
			Name:    "server-cache",
			HitCost: 200 * time.Microsecond,
		})
		srv = server.NewCached(w.Space, w.Local, serverCache)
	default:
		srv = server.New(w.Space, w.Local)
	}
	srv.SetLinkCost(cfg.LinkCost)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	defer func() {
		srv.Close()
		<-done
	}()
	var addr string
	for i := 0; i < 500; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(time.Millisecond)
	}
	if addr == "" {
		return PlacementRow{}, fmt.Errorf("server did not start")
	}
	client, err := server.Dial(addr)
	if err != nil {
		return PlacementRow{}, err
	}
	defer client.Close()

	var appCache *remote.Cache
	if mode == "app-only" || mode == "app+server" {
		appCache = remote.New(client, remote.Options{
			Capacity: int64(float64(cfg.Docs) * float64(cfg.DocSize) * cfg.AppCapacityFrac),
			Clock:    w.Clk, // TTL deadlines are in simulated time
		})
	}

	read := func(doc string) error {
		if appCache != nil {
			_, err := appCache.Read(doc, "reader")
			return err
		}
		_, _, err := client.Read(doc, "reader")
		return err
	}

	accesses := trace.Generate(trace.Config{
		Docs: cfg.Docs, Users: 1, Length: cfg.Reads, Alpha: 1.1, Seed: cfg.Seed,
	})
	var hist obs.Histogram
	var samples []time.Duration
	for _, a := range accesses {
		d := w.Timed(func() {
			if err := read(a.Doc); err != nil {
				panic(err)
			}
		})
		hist.Observe(d)
		samples = append(samples, d)
	}
	return PlacementRow{
		Placement: mode,
		MeanRead:  hist.Mean(),
		P99Read:   percentile(samples, 99),
	}, nil
}
