// Package experiment implements the reproduction harness: one
// function per table/figure of the paper plus the extension
// experiments DESIGN.md enumerates (E1–E6). Each Run* function builds
// a fresh simulated world on a virtual clock, drives it, and returns a
// result struct that renders the same rows the paper (or the
// experiment index) calls for. The plbench command and the repository
// benchmarks are thin wrappers over these functions.
package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"placeless/internal/clock"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/repo"
	"placeless/internal/simnet"
)

// epoch anchors every simulation at the HotOS VII week.
var epoch = time.Date(1999, time.March, 28, 0, 0, 0, 0, time.UTC)

// World is a complete simulated deployment: clock, repositories,
// document space, and a cache, pre-wired the way the paper's prototype
// ran (application-level cache in front of the Placeless middleware).
type World struct {
	Clk     *clock.Virtual
	Local   *repo.Mem
	LAN     *repo.Web
	WAN     *repo.Web
	Feed    *repo.LiveFeed
	Archive *repo.DMS
	Space   *docspace.Space
	Cache   *core.Cache
}

// DefaultCacheOptions returns the cache configuration used across
// experiments unless one overrides it: sub-millisecond local hit
// cost and a small miss-fill overhead, matching the paper's
// observation that notifier installation overhead on a miss is small.
func DefaultCacheOptions() core.Options {
	return core.Options{
		Name:     "appcache",
		HitCost:  200 * time.Microsecond,
		FillCost: 300 * time.Microsecond,
	}
}

// NewWorld builds a World with the canonical network topology: a
// local file store, a campus web server (the paper's parcweb), a far
// web server (www.gatech.edu), and a live feed. seed drives any
// simulated jitter.
func NewWorld(seed int64, cacheOpts core.Options) *World {
	clk := clock.NewVirtual(epoch)
	w := &World{
		Clk:     clk,
		Local:   repo.NewMem("localfs", clk, simnet.Local(seed)),
		LAN:     repo.NewWeb("parcweb", clk, simnet.LAN(seed+1), 30*time.Second, true),
		WAN:     repo.NewWeb("gatech", clk, simnet.WAN(seed+2), 30*time.Second, true),
		Feed:    repo.NewLiveFeed("cam", clk, simnet.LAN(seed+3), 4096),
		Archive: repo.NewDMS("dms", clk, simnet.Local(seed+4)),
	}
	w.Space = docspace.New(clk, w.Archive)
	// Middleware cost of reaching the Placeless servers (paper §3:
	// content flows through one, possibly two, servers per access).
	w.Space.SetAccessOverhead(2 * time.Millisecond)
	w.Cache = core.New(w.Space, cacheOpts)
	return w
}

// AddLocalDoc creates a document backed by the local store.
func (w *World) AddLocalDoc(id, owner string, content []byte) error {
	path := "/" + id
	if err := w.Local.Store(path, content); err != nil {
		return err
	}
	_, err := w.Space.CreateDocument(id, owner, &property.RepoBitProvider{Repo: w.Local, Path: path})
	return err
}

// AddWebDoc creates a document backed by a web origin (TTL-based
// consistency).
func (w *World) AddWebDoc(origin *repo.Web, id, owner string, content []byte) error {
	path := "/" + id
	origin.SetPage(path, content)
	_, err := w.Space.CreateDocument(id, owner, &property.RepoBitProvider{Repo: origin, Path: path})
	return err
}

// Timed runs fn and returns the simulated time it consumed.
func (w *World) Timed(fn func()) time.Duration {
	start := w.Clk.Now()
	fn()
	return w.Clk.Now().Sub(start)
}

// Content synthesizes deterministic document content of n bytes.
func Content(id string, n int64) []byte {
	if n <= 0 {
		n = 1
	}
	out := make([]byte, n)
	header := fmt.Sprintf("document %s (%d bytes)\n", id, n)
	copy(out, header)
	filler := "the quick brown fox jumps over teh lazy dog. active properties transform documents. "
	for i := len(header); i < len(out); i++ {
		out[i] = filler[(i-len(header))%len(filler)]
	}
	return out
}

// table renders rows as an aligned text table with a header.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// csvTable renders rows as RFC-4180-ish CSV (quotes around cells
// containing commas or quotes).
func csvTable(header []string, rows [][]string) string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// Result is the interface every experiment result satisfies: the
// header and rows that Table and CSV render.
type Result interface {
	TableData() ([]string, [][]string)
}

// Table renders r as an aligned text table.
func Table(r Result) string { return table(r.TableData()) }

// CSV renders r as CSV for plotting.
func CSV(r Result) string { return csvTable(r.TableData()) }

// percentile returns the p-th percentile (0 < p <= 100) of samples by
// exact nearest rank, or 0 with no samples. It sorts samples in place.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// fmtMS renders a duration as milliseconds with two decimals, the unit
// the paper's Table 1 uses.
func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// fmtPct renders a ratio as a percentage.
func fmtPct(r float64) string { return fmt.Sprintf("%.1f%%", r*100) }
