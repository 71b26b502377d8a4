package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden pins the exact text exposition of a small fixed
// registry: family ordering, HELP/TYPE lines, label rendering, and
// cumulative histogram buckets. A diff here means the wire format
// changed and every scraper downstream sees it.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z_last_total", "Sorts last.", func() int64 { return 7 })
	reg.Gauge("a_bytes", "Sorts first.", func() int64 { return 42 })
	v := reg.CounterVec("b_reads_total", "Labeled counter.", "verdict", "hit", "miss")
	v.Inc("hit")
	v.Inc("hit")
	h := reg.Histogram("c_seconds", "One histogram.")
	h.Observe(3 * time.Microsecond) // bucket le=4.096e-06
	h.Observe(100 * time.Millisecond)

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	// Families render in name order.
	wantOrder := []string{"a_bytes", "b_reads_total", "c_seconds", "z_last_total"}
	last := -1
	for _, name := range wantOrder {
		i := strings.Index(got, "# HELP "+name+" ")
		if i < 0 {
			t.Fatalf("family %s missing from exposition:\n%s", name, got)
		}
		if i < last {
			t.Fatalf("family %s out of order", name)
		}
		last = i
	}

	for _, want := range []string{
		"# HELP a_bytes Sorts first.\n# TYPE a_bytes gauge\na_bytes 42\n",
		`b_reads_total{verdict="hit"} 2` + "\n",
		`b_reads_total{verdict="miss"} 0` + "\n",
		"# TYPE c_seconds histogram\n",
		`c_seconds_bucket{le="1.024e-06"} 0` + "\n",
		`c_seconds_bucket{le="4.096e-06"} 1` + "\n",
		`c_seconds_bucket{le="+Inf"} 2` + "\n",
		"c_seconds_count 2\n",
		"c_seconds_sum 0.100003\n",
		"z_last_total 7\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, got)
		}
	}

	// Bucket counts are cumulative and monotone.
	if !strings.Contains(got, `c_seconds_bucket{le="0.268435456"} 2`) {
		t.Errorf("100ms sample not cumulative through later buckets:\n%s", got)
	}
}

// TestExpositionVecLabels checks histogram-vec label rendering.
func TestExpositionVecLabels(t *testing.T) {
	reg := NewRegistry()
	v := reg.HistogramVec("d_seconds", "Staged.", "stage", "alpha", "beta")
	v.Observe("beta", int64(2*time.Microsecond))
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		`d_seconds_bucket{stage="alpha",le="+Inf"} 0`,
		`d_seconds_bucket{stage="beta",le="+Inf"} 1`,
		`d_seconds_count{stage="beta"} 1`,
		`d_seconds_sum{stage="alpha"} 0`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	// One HELP/TYPE block for the whole family, not one per label.
	if n := strings.Count(got, "# TYPE d_seconds histogram"); n != 1 {
		t.Errorf("TYPE rendered %d times, want 1", n)
	}
}

// TestDuplicateRegistrationPanics pins the rename-guard: registering
// two families under one name is a wiring bug, caught loudly.
func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup_total", "first", func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.Gauge("dup_total", "second", func() int64 { return 0 })
}

// TestHistogramQuantile checks the bucket-bound quantile estimate.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(2 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if p50 := h.Quantile(0.50); p50 > 8*time.Microsecond {
		t.Errorf("p50 = %v, want <= 8µs (bucket bound above 2µs)", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 50*time.Millisecond || p99 > 200*time.Millisecond {
		t.Errorf("p99 = %v, want within one bucket of 50ms", p99)
	}
	if mean := h.Mean(); mean < 4*time.Millisecond || mean > 7*time.Millisecond {
		t.Errorf("mean = %v, want ~5ms", mean)
	}
}

// TestHistogramBoundsAndNearestRank: an observation equal to a bucket
// bound counts under that bound (the exposition's le is ≤), and a
// quantile is the bucket of the nearest rank ceil(q·n).
func TestHistogramBoundsAndNearestRank(t *testing.T) {
	for _, c := range []struct{ ns, le int64 }{
		{1, 1024}, {1024, 1024}, {1025, 2048}, {2048, 2048}, {1 << 34, 1 << 34},
	} {
		var h Histogram
		h.ObserveNanos(c.ns)
		if got := h.Quantile(1); got != time.Duration(c.le) {
			t.Errorf("%d ns lands under le %d ns, want %d ns", c.ns, int64(got), c.le)
		}
	}
	var over Histogram
	over.ObserveNanos(1<<34 + 1)
	if got := over.Quantile(1); got != 2*time.Duration(1<<34) {
		t.Errorf("2^34+1 ns reports %v, want the overflow bucket", got)
	}

	var h Histogram
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, time.Second} {
		h.Observe(d)
	}
	if p50 := h.Quantile(0.5); p50 < time.Millisecond || p50 > 2*time.Millisecond {
		t.Errorf("p50 of {1µs, 1ms, 1s} = %v, want the 1ms bucket", p50)
	}
}

// TestHistogramConcurrency hammers one histogram from many goroutines
// while scraping it; run under -race this is the data-race check for
// the lock-free bucket scheme, and the final totals prove no lost
// updates.
func TestHistogramConcurrency(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("conc_seconds", "Concurrency check.")
	const goroutines = 8
	const per = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			_ = reg.WriteText(&sb)
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveNanos(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("Count = %d, want %d (lost updates)", got, goroutines*per)
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
	}
	if cum != goroutines*per {
		t.Fatalf("bucket sum = %d, want %d", cum, goroutines*per)
	}
}

// TestTraceRingWraparound fills a small ring past capacity and checks
// retention, ordering, and the total counter.
func TestTraceRingWraparound(t *testing.T) {
	r := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		r.Add(ReadTrace{Doc: fmt.Sprintf("d%d", i)})
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	got := r.Snapshot(0)
	if len(got) != 4 {
		t.Fatalf("Snapshot kept %d, want 4", len(got))
	}
	for i, want := range []string{"d9", "d8", "d7", "d6"} { // newest first
		if got[i].Doc != want {
			t.Errorf("Snapshot[%d].Doc = %s, want %s", i, got[i].Doc, want)
		}
	}
	if got := r.Snapshot(2); len(got) != 2 || got[0].Doc != "d9" || got[1].Doc != "d8" {
		t.Errorf("Snapshot(2) = %v", got)
	}
	// Before wraparound, a fresh ring returns only what was added.
	r2 := NewTraceRing(4)
	r2.Add(ReadTrace{Doc: "only"})
	if got := r2.Snapshot(0); len(got) != 1 || got[0].Doc != "only" {
		t.Errorf("fresh ring Snapshot = %v", got)
	}
}

// TestTraceRingConcurrency exercises Add/Snapshot races under -race.
func TestTraceRingConcurrency(t *testing.T) {
	r := NewTraceRing(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Add(ReadTrace{Doc: "d", Total: time.Duration(i)})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = r.Snapshot(16)
		}
	}()
	wg.Wait()
	if r.Total() != 8000 {
		t.Fatalf("Total = %d, want 8000", r.Total())
	}
}

// TestObserverReadRecording checks that one ObserveRead lands in the
// verdict counter, the stage histograms, and the ring.
func TestObserverReadRecording(t *testing.T) {
	o := NewObserver()
	o.ObserveRead(ReadTrace{
		Doc: "d", User: "u", Verdict: VerdictMemo, Cause: CauseContentWrite,
		Total: 5 * time.Millisecond, Lookup: 2 * time.Microsecond,
		BitFetch: time.Millisecond, Universal: 40 * time.Microsecond,
		Personal: 300 * time.Microsecond,
	})
	o.ObserveRead(ReadTrace{Doc: "d", User: "u", Verdict: VerdictHit,
		Total: 3 * time.Microsecond, Lookup: time.Microsecond, Verify: time.Microsecond})
	o.Invalidation(CauseReorder)

	if got := o.VerdictCounts(); got[VerdictMemo] != 1 || got[VerdictHit] != 1 {
		t.Errorf("VerdictCounts = %v", got)
	}
	if got := o.CauseCounts(); got[CauseReorder] != 1 {
		t.Errorf("CauseCounts = %v", got)
	}
	if got := o.StageHistogram(StageUniversal).Count(); got != 1 {
		t.Errorf("universal stage count = %d, want 1", got)
	}
	if got := o.StageHistogram(StageVerify).Count(); got != 1 {
		t.Errorf("verify stage count = %d, want 1", got)
	}
	if got := o.ReadHistogram().Count(); got != 2 {
		t.Errorf("read histogram count = %d, want 2", got)
	}
	if got := o.Ring().Snapshot(0); len(got) != 2 || got[0].Verdict != VerdictHit {
		t.Errorf("ring = %+v", got)
	}
}

// TestHandlers exercises the HTTP surface: /metrics media type and
// content, /debug/traces JSON shape and the ?n= bound.
func TestHandlers(t *testing.T) {
	o := NewObserver()
	for i := 0; i < 5; i++ {
		o.ObserveRead(ReadTrace{Doc: fmt.Sprintf("d%d", i), User: "u",
			Verdict: VerdictMiss, Cause: CauseCold, Total: time.Millisecond})
	}

	mux := httptest.NewServer(o.MetricsHandler())
	defer mux.Close()
	resp, err := mux.Client().Get(mux.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, `placeless_reads_total{verdict="miss"} 5`) {
		t.Errorf("/metrics missing miss count; got:\n%s", body)
	}

	ts := httptest.NewServer(o.TracesHandler())
	defer ts.Close()
	resp2, err := ts.Client().Get(ts.URL + "?n=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var dump TraceDump
	if err := json.NewDecoder(resp2.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Total != 5 || len(dump.Traces) != 2 || dump.Traces[0].Doc != "d4" {
		t.Errorf("trace dump = %+v", dump)
	}
	if resp3, _ := ts.Client().Get(ts.URL + "?n=bogus"); resp3.StatusCode != 400 {
		t.Errorf("bad ?n= returned %d, want 400", resp3.StatusCode)
	}
}
