package obs

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram built for hot-path
// use: Observe is two atomic adds and a bit-length computation, with
// no locks, no allocation, and no stored samples. This is the
// production counterpart to metrics.Histogram, which keeps every
// sample for exact percentiles and is priced for the experiment
// harness, not for millions of reads.
//
// Buckets are powers of two in nanoseconds from 2^histMinExp (1.024µs)
// to 2^histMaxExp (~17.2s); durations above the range land in the
// implicit +Inf bucket. Power-of-two bounds make bucket selection a
// single bits.Len64 and bound error at most 2×, which is ample for
// the question per-stage histograms answer (which stage costs the
// time, and has its distribution moved).

const (
	// histMinExp is the exponent of the first bucket bound (2^10 ns).
	histMinExp = 10
	// histMaxExp is the exponent of the last finite bound (2^34 ns).
	histMaxExp = 34
	// histBounds is the number of finite bucket bounds.
	histBounds = histMaxExp - histMinExp + 1
)

// Histogram's zero value is ready to use.
type Histogram struct {
	// counts[i] for i < histBounds holds observations with
	// d <= 2^(histMinExp+i) ns (non-cumulative); counts[histBounds]
	// is the +Inf overflow bucket.
	counts [histBounds + 1]atomic.Int64
	sum    atomic.Int64 // nanoseconds
	n      atomic.Int64
}

// bucketFor maps a nanosecond duration to its bucket index: the first
// bucket whose bound is at least ns, so an observation equal to a bound
// counts under that bound's le.
func bucketFor(ns int64) int {
	if ns <= 0 {
		return 0
	}
	i := bits.Len64(uint64(ns-1)) - histMinExp
	if i < 0 {
		return 0
	}
	if i > histBounds {
		return histBounds
	}
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one duration given in nanoseconds.
func (h *Histogram) ObserveNanos(ns int64) {
	h.counts[bucketFor(ns)].Add(1)
	h.sum.Add(ns)
	h.n.Add(1)
}

// ObserveSince records the elapsed time from t0 to now.
func (h *Histogram) ObserveSince(t0 time.Time) { h.ObserveNanos(int64(time.Since(t0))) }

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum reports the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean reports the average observation, or 0 with none.
func (h *Histogram) Mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// boundNanos returns the upper bound of finite bucket i in ns.
func boundNanos(i int) int64 { return int64(1) << (histMinExp + i) }

// Quantile returns an upper-bound estimate of the q-quantile
// (0 < q <= 1): the bound of the bucket containing the observation of
// nearest rank ceil(q·n). Observations in the overflow bucket report
// twice the last finite bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i <= histBounds; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i == histBounds {
				return 2 * time.Duration(boundNanos(histBounds-1))
			}
			return time.Duration(boundNanos(i))
		}
	}
	return 2 * time.Duration(boundNanos(histBounds-1))
}

// write renders the histogram in exposition format under name, with
// labels (e.g. `stage="universal"`) merged into each sample's label
// set. Bucket counts are cumulative per the Prometheus contract.
//
// A scrape racing concurrent Observes can see a bucket increment
// without the matching sum/count increment (or vice versa); each
// sample line is itself consistent, which is the usual monitoring
// contract.
func (h *Histogram) write(w *bufio.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i := 0; i < histBounds; i++ {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, formatSeconds(boundNanos(i)), cum)
	}
	cum += h.counts[histBounds].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatSeconds(h.sum.Load()), name, h.n.Load())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n%s_count{%s} %d\n", name, labels, formatSeconds(h.sum.Load()), name, labels, h.n.Load())
	}
}
