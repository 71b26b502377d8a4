package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/simnet"
	"placeless/internal/store"
)

// WireConfig parameterizes the wire-protocol experiment (E15): a
// warm-hit read workload driven over loopback TCP through the binary
// framing, across blob sizes, with concurrent callers sharing one
// connection. Like E11/E14 this runs real TCP on the real clock, so
// absolute rates are machine-dependent; allocations and bytes per op
// are the stable cells.
type WireConfig struct {
	// BlobSizes are the document body sizes measured, bytes.
	BlobSizes []int
	// Ops is the minimum number of reads timed per size cell; the cell also keeps issuing reads until MinSeconds of wall
	// time have elapsed, so fast cells are not measured over a
	// milliseconds-long burst.
	Ops int
	// MinSeconds is the minimum measured duration per cell.
	MinSeconds float64
	// Concurrency is how many goroutines share the one client
	// connection — the pipelining axis.
	Concurrency int
	// Seed fixes document contents.
	Seed int64
}

// DefaultWireConfig returns the configuration used by plbench.
func DefaultWireConfig() WireConfig {
	return WireConfig{
		BlobSizes:   []int{4 << 10, 64 << 10, 1 << 20},
		Ops:         400,
		MinSeconds:  2,
		Concurrency: 32,
		Seed:        1,
	}
}

// WirePhase is one blob size's measurement.
type WirePhase struct {
	// BlobSize is the document body size, bytes.
	BlobSize int
	// Ops is the number of reads actually measured (the configured
	// floor, extended until MinSeconds elapsed); Concurrency echoes
	// the workload shape.
	Ops, Concurrency int
	// Seconds is the measured wall time for Ops reads.
	Seconds float64
	// OpsPerSec and MBPerSec are the resulting read throughput.
	OpsPerSec, MBPerSec float64
	// AllocsPerOp is the whole-process allocation count per read
	// (client and server share the process, so both sides' codec
	// allocations are charged).
	AllocsPerOp float64
	// BytesPerOp is the whole-process allocated bytes per read.
	BytesPerOp float64
	// FramesBatched is the client's multi-frame writev counter after
	// the run.
	FramesBatched int64
	// StreamedReads is how many responses the server streamed
	// zero-copy from the disk tier (0 below the threshold).
	StreamedReads int64
}

// WireResult is experiment E15's output.
type WireResult struct {
	Config WireConfig
	// Phases holds one row per blob size.
	Phases []WirePhase
}

// TableData returns the result's header and rows, the shared source
// for the text-table and CSV renderings.
func (r WireResult) TableData() ([]string, [][]string) {
	header := []string{"blob", "ops/s", "MB/s", "allocs/op", "KB/op", "batched", "streamed"}
	var rows [][]string
	for _, p := range r.Phases {
		rows = append(rows, []string{
			fmt.Sprintf("%dKiB", p.BlobSize>>10),
			fmt.Sprintf("%.0f", p.OpsPerSec),
			fmt.Sprintf("%.1f", p.MBPerSec),
			fmt.Sprintf("%.0f", p.AllocsPerOp),
			fmt.Sprintf("%.1f", p.BytesPerOp/1024),
			fmt.Sprintf("%d", p.FramesBatched),
			fmt.Sprintf("%d", p.StreamedReads),
		})
	}
	return header, rows
}

// runWirePhase measures one size cell: a cached server over loopback
// TCP, one client, cfg.Concurrency goroutines splitting cfg.Ops
// warm-hit reads of one document.
func runWirePhase(cfg WireConfig, size int, st *store.Store) (WirePhase, error) {
	phase := WirePhase{BlobSize: size, Ops: cfg.Ops, Concurrency: cfg.Concurrency}

	clk := clock.Real{}
	backing := repo.NewMem("srv", clk, simnet.NewPath("free", cfg.Seed))
	space := docspace.New(clk, nil)
	cache := core.New(space, core.Options{Name: "e15", Capacity: 64 << 20})
	defer cache.Close()
	srv := server.NewCached(space, backing, cache)
	if st != nil {
		srv.SetStore(st)
	}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	defer func() { srv.Close(); <-done }()
	var addr string
	for i := 0; i < 500; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if addr == "" {
		return phase, errors.New("wire: server did not start")
	}
	client, err := server.Dial(addr)
	if err != nil {
		return phase, err
	}
	defer client.Close()

	doc := fmt.Sprintf("blob-%d", size)
	body := Content(doc, int64(size))
	if err := client.CreateDocument(doc, "u", body); err != nil {
		return phase, err
	}
	if st != nil {
		// Seed the disk tier with the exact bytes so responses at or
		// above the stream threshold go zero-copy from the segment file.
		if _, err := st.PutBlob(body); err != nil {
			return phase, err
		}
	}
	// Warm the server cache (and verify the bytes once).
	got, _, err := client.Read(doc, "u")
	if err != nil {
		return phase, err
	}
	if !bytes.Equal(got, body) {
		return phase, fmt.Errorf("wire: served %d bytes, want %d", len(got), len(body))
	}

	errc := make(chan error, 2*cfg.Concurrency)
	// Unmeasured warmup: settle the connection, buffer pools, and the
	// writer's batch state before the timer starts, the same way Go
	// benchmarks discard their first iterations.
	var warm sync.WaitGroup
	for g := 0; g < cfg.Concurrency; g++ {
		warm.Add(1)
		go func() {
			defer warm.Done()
			buf := make([]byte, size)
			for i := 0; i < 16; i++ {
				if _, _, err := client.ReadInto(doc, "u", buf); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	warm.Wait()
	select {
	case err := <-errc:
		return phase, err
	default:
	}

	// Measured phase: every goroutine keeps issuing reads until both
	// the ops floor and the minimum duration are met, so per-cell
	// wall time is long enough to dominate timer and scheduler noise
	// regardless of how fast the cell is.
	minOps := int64(cfg.Ops)
	minDur := time.Duration(cfg.MinSeconds * float64(time.Second))
	var total atomic.Int64
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	streamedBefore := srv.StreamedReads()
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < cfg.Concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-goroutine reusable body buffer: the read loop decodes
			// bodies straight into it (ReadInto), so steady state
			// allocates nothing per read.
			buf := make([]byte, size)
			for {
				if total.Load() >= minOps && time.Since(start) >= minDur {
					return
				}
				data, _, err := client.ReadInto(doc, "u", buf)
				if err != nil {
					errc <- err
					return
				}
				if len(data) != len(body) {
					errc <- fmt.Errorf("wire: short read: %d of %d bytes", len(data), len(body))
					return
				}
				total.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	select {
	case err := <-errc:
		return phase, err
	default:
	}

	ops := total.Load()
	phase.Ops = int(ops)
	phase.Seconds = elapsed.Seconds()
	phase.OpsPerSec = float64(ops) / elapsed.Seconds()
	phase.MBPerSec = float64(ops) * float64(size) / (1 << 20) / elapsed.Seconds()
	phase.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
	phase.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
	phase.FramesBatched = client.FramesBatched()
	phase.StreamedReads = srv.StreamedReads() - streamedBefore
	return phase, nil
}

// RunWire runs experiment E15: pipelined binary framing over loopback,
// per blob size.
func RunWire(cfg WireConfig) (WireResult, error) {
	res := WireResult{Config: cfg}
	dir, err := os.MkdirTemp("", "placeless-e15-store-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return res, err
	}
	defer st.Close()

	for _, size := range cfg.BlobSizes {
		phase, err := runWirePhase(cfg, size, st)
		if err != nil {
			return res, err
		}
		res.Phases = append(res.Phases, phase)
	}
	return res, nil
}
