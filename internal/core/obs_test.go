package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
)

// TestObserverVerdictsAndCauses walks one document through the paper's
// invalidation causes and checks that the attached Observer classifies
// every read and attributes every miss.
func TestObserverVerdictsAndCauses(t *testing.T) {
	o := obs.NewObserver()
	users := memoUsers(2)
	w := newWorld(t, Options{Memoize: true, Observer: o})
	setupMemoDoc(t, w, users)

	// Cold miss, warm hit, then a second user served memoized.
	w.read(t, "d", users[0])
	w.read(t, "d", users[0])
	w.read(t, "d", users[1])

	// Cause 1: content written through Placeless.
	if err := w.cache.Write("d", users[0], []byte("teh new content\nline two\n")); err != nil {
		t.Fatal(err)
	}
	w.read(t, "d", users[0])

	// Cause 3: universal execution order changed.
	if err := w.space.Reorder("d", "", docspace.Universal, []string{"line-number", "spell-correct"}); err != nil {
		t.Fatal(err)
	}
	w.read(t, "d", users[0])

	// Cause 4: information outside Placeless control changed.
	if err := w.space.SignalExternalChange("d", "source replaced"); err != nil {
		t.Fatal(err)
	}
	w.read(t, "d", users[0])

	v := o.VerdictCounts()
	if v[obs.VerdictHit] != 1 {
		t.Errorf("hit verdicts = %d, want 1", v[obs.VerdictHit])
	}
	if v[obs.VerdictMemo] < 1 {
		t.Errorf("memo verdicts = %d, want >= 1", v[obs.VerdictMemo])
	}
	if v[obs.VerdictMiss] < 3 {
		t.Errorf("miss verdicts = %d, want >= 3", v[obs.VerdictMiss])
	}
	c := o.CauseCounts()
	if c[obs.CauseContentWrite] < 1 {
		t.Errorf("content-write invalidations = %d, want >= 1", c[obs.CauseContentWrite])
	}
	if c[obs.CauseReorder] < 1 {
		t.Errorf("reorder invalidations = %d, want >= 1", c[obs.CauseReorder])
	}
	if c[obs.CauseExternal] < 1 {
		t.Errorf("external invalidations = %d, want >= 1", c[obs.CauseExternal])
	}

	// The trace ring saw every read, newest first: the last read was a
	// miss attributed to the external change.
	traces := o.Ring().Snapshot(0)
	if want := int(o.ReadHistogram().Count()); len(traces) != want {
		t.Fatalf("ring kept %d traces, want %d", len(traces), want)
	}
	last := traces[0]
	if last.Verdict != obs.VerdictMiss && last.Verdict != obs.VerdictMemo {
		t.Errorf("last trace verdict = %s, want miss or memo", last.Verdict)
	}
	if last.Cause != obs.CauseExternal {
		t.Errorf("last trace cause = %s, want %s", last.Cause, obs.CauseExternal)
	}
	if last.Total <= 0 {
		t.Errorf("last trace Total = %v, want > 0", last.Total)
	}
	// Every read times its index lookup, and the one warm hit timed its
	// verifiers.
	for _, stage := range []string{obs.StageShardLookup, obs.StageVerify} {
		if o.StageHistogram(stage).Count() == 0 {
			t.Errorf("%s stage histogram is empty", stage)
		}
	}
	// Staged misses separate bit-fetch / universal / personal spans.
	if last.BitFetch <= 0 || last.Universal <= 0 || last.Personal <= 0 {
		t.Errorf("staged miss spans = %v/%v/%v, want all > 0",
			last.BitFetch, last.Universal, last.Personal)
	}
}

// TestObserverEveryMissIsSplit checks that a miss records the
// bit-fetch / universal / personal spans whatever its configuration:
// memoization off, memoization on, and memoization on over a chain
// whose first universal property has no memo contract (no cut
// survives, so the store is never consulted). Only the number of cuts
// offered tells the three apart.
func TestObserverEveryMissIsSplit(t *testing.T) {
	for _, tc := range []struct {
		name     string
		memoize  bool
		poisoned bool
		wantCuts bool
	}{
		{"memoize off", false, false, false},
		{"memoize on", true, false, true},
		{"memoize on, head not memoizable", true, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.NewObserver()
			users := memoUsers(1)
			w := newWorld(t, Options{Memoize: tc.memoize, Observer: o})
			setupMemoDoc(t, w, users)
			if tc.poisoned {
				opaque := &property.Transformer{
					Base:          property.Base{PropName: "opaque"},
					ReadTransform: bytes.ToUpper,
					Version:       1,
				}
				if err := w.space.Attach("d", "", docspace.Universal, opaque); err != nil {
					t.Fatal(err)
				}
				if err := w.space.Reorder("d", "", docspace.Universal, []string{"opaque", "spell-correct", "line-number"}); err != nil {
					t.Fatal(err)
				}
			}
			w.read(t, "d", users[0])

			tr := o.Ring().Snapshot(1)
			if len(tr) != 1 || tr[0].Verdict != obs.VerdictMiss || tr[0].Cause != obs.CauseCold {
				t.Fatalf("trace = %+v, want one cold miss", tr)
			}
			if tr[0].BitFetch <= 0 || tr[0].Universal <= 0 || tr[0].Personal <= 0 {
				t.Errorf("miss spans = %v/%v/%v, want all > 0", tr[0].BitFetch, tr[0].Universal, tr[0].Personal)
			}
			if (tr[0].PrefixCuts > 0) != tc.wantCuts {
				t.Errorf("PrefixCuts = %d, want > 0: %v", tr[0].PrefixCuts, tc.wantCuts)
			}
			for _, stage := range []string{obs.StageBitFetch, obs.StageUniversal, obs.StagePersonal} {
				if got := o.StageHistogram(stage).Count(); got != 1 {
					t.Errorf("%s stage count = %d, want 1", stage, got)
				}
			}
		})
	}
}

// TestObserverCoalescedVerdicts checks that single-flight followers are
// classified coalesced, in agreement with the cache's own counter.
func TestObserverCoalescedVerdicts(t *testing.T) {
	o := obs.NewObserver()
	w := newWorld(t, Options{Observer: o})
	w.addDoc(t, "d", "eyal", "/d", []byte("content"))

	const readers = 16
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.cache.Read("d", "eyal"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	st := w.cache.Stats()
	v := o.VerdictCounts()
	if v[obs.VerdictCoalesced] != st.CoalescedMisses {
		t.Errorf("coalesced verdicts = %d, cache counter = %d",
			v[obs.VerdictCoalesced], st.CoalescedMisses)
	}
	var total int64
	for _, n := range v {
		total += n
	}
	if total != readers {
		t.Errorf("verdict total = %d, want %d", total, readers)
	}
	if st.CoalescedMisses > 0 &&
		o.StageHistogram(obs.StageFlightWait).Count() != st.CoalescedMisses {
		t.Errorf("flight_wait observations = %d, want %d",
			o.StageHistogram(obs.StageFlightWait).Count(), st.CoalescedMisses)
	}
}

// TestObserverRegistersCacheFamilies pins the stable placeless_cache_*
// names the CI golden list and scrapers depend on.
func TestObserverRegistersCacheFamilies(t *testing.T) {
	o := obs.NewObserver()
	w := newWorld(t, Options{Observer: o})
	w.addDoc(t, "d", "eyal", "/d", []byte("content"))
	w.read(t, "d", "eyal")
	w.read(t, "d", "eyal")

	names := make(map[string]bool)
	for _, n := range o.Registry().Names() {
		names[n] = true
	}
	for _, want := range []string{
		"placeless_cache_hits_total",
		"placeless_cache_misses_total",
		"placeless_cache_coalesced_misses_total",
		"placeless_cache_verifier_rejects_total",
		"placeless_cache_notifications_total",
		"placeless_cache_invalidations_total",
		"placeless_cache_evictions_total",
		"placeless_cache_uncacheable_total",
		"placeless_cache_events_forwarded_total",
		"placeless_cache_prefetches_total",
		"placeless_cache_bytes_stored",
		"placeless_cache_bytes_logical",
		"placeless_cache_shared_entries",
		"placeless_cache_entries",
		"placeless_cache_intermediate_hits_total",
		"placeless_cache_universal_stage_runs_total",
		"placeless_cache_bytes_recomputed_saved_total",
		"placeless_cache_intermediate_entries",
		"placeless_cache_intermediate_bytes",
	} {
		if !names[want] {
			t.Errorf("family %s not registered", want)
		}
	}
}

// TestObserverOverheadGate is a sanity bound, not a benchmark: the
// instrumented hit path must stay in the same order of magnitude as
// the bare one (the <5% measurement is BenchmarkParallelHitThroughput's
// observed row against its sharded row).
func TestObserverOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	run := func(o *obs.Observer) time.Duration {
		w := newWorld(t, Options{Observer: o})
		w.addDoc(t, "d", "eyal", "/d", []byte("content"))
		w.read(t, "d", "eyal") // warm
		start := time.Now()
		for i := 0; i < 2000; i++ {
			w.read(t, "d", "eyal")
		}
		return time.Since(start)
	}
	bare := run(nil)
	observed := run(obs.NewObserver())
	if observed > 10*bare {
		t.Errorf("observed hits took %v vs bare %v — instrumentation too heavy", observed, bare)
	}
}

// TestMetricsScrapeEndToEnd mounts an origin cache's Observer on an
// HTTP server, reads through the cache, and then scrapes /metrics,
// /debug/traces and /debug/pprof/ over HTTP: the path an operator's
// Prometheus scrape takes.
func TestMetricsScrapeEndToEnd(t *testing.T) {
	o := obs.NewObserver()
	w := newWorld(t, Options{Observer: o})
	mux := http.NewServeMux()
	o.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	w.addDoc(t, "d", "eyal", "/d", []byte("content"))
	for i := 0; i < 3; i++ {
		w.read(t, "d", "eyal")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		"placeless_cache_hits_total 2",
		"placeless_cache_misses_total 1",
		`placeless_reads_total{verdict="hit"} 2`,
		`placeless_reads_total{verdict="miss"} 1`,
		"placeless_read_duration_seconds_count 3",
		`placeless_read_stage_duration_seconds_count{stage="bit_fetch"} 1`,
		"placeless_traces_recorded_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	tresp, err := http.Get(ts.URL + "/debug/traces?n=10")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var dump obs.TraceDump
	if err := json.NewDecoder(tresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Total != 3 || len(dump.Traces) != 3 {
		t.Fatalf("trace dump total=%d len=%d, want 3/3", dump.Total, len(dump.Traces))
	}
	if dump.Traces[0].Verdict != "hit" || dump.Traces[2].Verdict != "miss" {
		t.Errorf("trace verdicts newest-first = %s..%s, want hit..miss",
			dump.Traces[0].Verdict, dump.Traces[2].Verdict)
	}

	presp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status = %d", presp.StatusCode)
	}
}

// TestEntryInfoVerdict: every read reports how it was served in
// EntryInfo.Verdict, set where the outcome happens, with or without an
// Observer; with one, the verdicts the reads report are exactly the
// placeless_reads_total series they increment.
func TestEntryInfoVerdict(t *testing.T) {
	// Each row builds a cache over opts (which carry the Observer, or
	// none), reads, and returns the infos of every read the cache it
	// observes made; the last one's verdict is the row's.
	rows := []struct {
		want string
		run  func(t *testing.T, opts Options) []EntryInfo
	}{
		{obs.VerdictMiss, func(t *testing.T, opts Options) []EntryInfo {
			w := newWorld(t, opts)
			w.addDoc(t, "d", "eyal", "/d", []byte("content"))
			return []EntryInfo{readInfo(t, w.cache, "eyal")}
		}},
		{obs.VerdictHit, func(t *testing.T, opts Options) []EntryInfo {
			w := newWorld(t, opts)
			w.addDoc(t, "d", "eyal", "/d", []byte("content"))
			return []EntryInfo{readInfo(t, w.cache, "eyal"), readInfo(t, w.cache, "eyal")}
		}},
		{obs.VerdictMemo, func(t *testing.T, opts Options) []EntryInfo {
			opts.Memoize = true
			w := newWorld(t, opts)
			users := memoUsers(2)
			setupMemoDoc(t, w, users)
			return []EntryInfo{readInfo(t, w.cache, users[0]), readInfo(t, w.cache, users[1])}
		}},
		{obs.VerdictDisk, func(t *testing.T, opts Options) []EntryInfo {
			d := newDurableWorld(t, Options{})
			users := memoUsers(1)
			setupMemoDoc(t, d.world, users)
			readInfo(t, d.cache, users[0])
			d.opts.Observer = opts.Observer // observe the successor only
			d.crashAndRestart()
			return []EntryInfo{readInfo(t, d.cache, users[0])}
		}},
		{obs.VerdictCoalesced, func(t *testing.T, opts Options) []EntryInfo {
			w := newWorld(t, opts)
			// A reader that arrives after the leader's install is a hit,
			// not a follower: try again on a fresh document.
			for attempt := 0; attempt < 20; attempt++ {
				doc := fmt.Sprintf("d%d", attempt)
				bits := &countingProvider{payload: []byte("content"), release: make(chan struct{})}
				if _, err := w.space.CreateDocument(doc, "eyal", bits); err != nil {
					t.Fatal(err)
				}
				infos := make([]EntryInfo, 2)
				var wg sync.WaitGroup
				read := func(i int) {
					defer wg.Done()
					_, info, err := w.cache.ReadWithInfo(doc, "eyal")
					if err != nil {
						t.Error(err)
					}
					infos[i] = info
				}
				wg.Add(2)
				go read(0)
				for bits.opens.Load() == 0 {
					time.Sleep(time.Millisecond)
				}
				go read(1)
				time.Sleep(20 * time.Millisecond)
				close(bits.release)
				wg.Wait()
				if infos[1].Verdict != obs.VerdictHit {
					return infos
				}
			}
			t.Fatal("no reader joined the leader's flight")
			return nil
		}},
	}
	for _, r := range rows {
		for _, observed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/observer=%v", r.want, observed), func(t *testing.T) {
				var opts Options
				if observed {
					opts.Observer = obs.NewObserver()
				}
				infos := r.run(t, opts)
				if got := infos[len(infos)-1].Verdict; got != r.want {
					t.Fatalf("verdict %q, want %q", got, r.want)
				}
				if !observed {
					return
				}
				want := map[string]int64{}
				for _, info := range infos {
					want[info.Verdict]++
				}
				for v, n := range opts.Observer.VerdictCounts() {
					if n != want[v] {
						t.Errorf("placeless_reads_total{verdict=%q} = %d, the reads reported it %d times", v, n, want[v])
					}
				}
			})
		}
	}
}

// readInfo reads ("d", user) through c and returns the read's info.
func readInfo(t *testing.T, c *Cache, user string) EntryInfo {
	t.Helper()
	_, info, err := c.ReadWithInfo("d", user)
	if err != nil {
		t.Fatal(err)
	}
	return info
}
