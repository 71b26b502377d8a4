package core

// Concurrency regression suite for the sharded cache core:
//
//   - the load/install callback race (a write landing mid-miss must
//     not leave a stale entry installed),
//   - a mixed-operation stress harness exercising concurrent
//     Read/Write/Invalidate/Resize across overlapping
//     (document, user) pairs, meant to run under -race,
//   - single-flight correctness: K concurrent misses on one key
//     execute the read path (and hence the bit-provider fetch)
//     exactly once,
//   - a transform that panics inside a flight (entry or cut) releases
//     its followers and frees the key,
//   - a mixed stress over the one table holding entries and cuts:
//     shared prefixes, invalidations and a capacity of a few entries.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/stream"
)

// midReadWriter is an active property whose read transform performs a
// concurrent write to the same document the first time it runs —
// deterministically reproducing "the source changed while the cache
// was loading".
type midReadWriter struct {
	property.Base
	space *docspace.Space
	doc   string
	data  []byte
	fired bool
}

func (m *midReadWriter) WrapInput(*property.ReadContext) stream.Transform {
	return func(b []byte) []byte {
		if !m.fired {
			m.fired = true
			// The write runs the full write path: store + the
			// contentWritten event that notifies the cache.
			if err := m.space.WriteDocument(m.doc, "writer", m.data); err != nil {
				panic(err)
			}
		}
		return b
	}
}

// firstReadAttacher is an active property that touches no bytes and,
// the first time a read wraps it, attaches another property to the
// base document — a property change landing inside a miss, after the
// read snapshotted the chain it will execute.
type firstReadAttacher struct {
	property.Base
	space *docspace.Space
	doc   string
	add   property.Active
	fired bool
}

func (a *firstReadAttacher) WrapInput(*property.ReadContext) stream.Transform {
	if !a.fired {
		a.fired = true
		if err := a.space.Attach(a.doc, "", docspace.Universal, a.add); err != nil {
			panic(err)
		}
	}
	return nil
}

// TestChangeDuringFirstMissIsNotCached: on a key's first miss the
// notifiers must be attached before the read, not after the install.
// Attached after, the universal attach below bumps no generation and
// reaches no notifier, the pre-attach bytes are installed, and nothing
// ever removes them: no verifier watches a property list.
func TestChangeDuringFirstMissIsNotCached(t *testing.T) {
	w := newWorld(t, Options{})
	w.addDoc(t, "d", "eyal", "/d", []byte("quiet words"))
	trigger := &firstReadAttacher{
		Base:  property.Base{PropName: "first-read-attacher"},
		space: w.space, doc: "d", add: property.NewUppercaser(0),
	}
	if err := w.space.Attach("d", "eyal", docspace.Personal, trigger); err != nil {
		t.Fatal(err)
	}

	w.read(t, "d", "eyal") // either chain is legal here: the attach lands mid-read
	if got := w.read(t, "d", "eyal"); string(got) != "QUIET WORDS" {
		t.Fatalf("read after a mid-first-miss attach = %q, want the new chain's bytes", got)
	}
	if st := w.cache.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want the first miss not installed and the second read a miss", st)
	}
}

func TestInvalidationDuringMissPreventsStaleInstall(t *testing.T) {
	// Verifiers off: only the notification protects consistency, so
	// a stale install would be served forever.
	w := newWorld(t, Options{DisableVerifiers: true})
	w.addDoc(t, "d", "writer", "/d", []byte("v1"))
	w.space.AddReference("d", "reader")

	// Install the cache's notifiers with a clean first read.
	w.read(t, "d", "reader")
	w.cache.Invalidate("d", "reader")

	trigger := &midReadWriter{
		Base:  property.Base{PropName: "mid-read-writer"},
		space: w.space, doc: "d", data: []byte("v2-during-read"),
	}
	if err := w.space.Attach("d", "reader", docspace.Personal, trigger); err != nil {
		t.Fatal(err)
	}

	// This miss reads v1, and v2 lands mid-flight.
	first, err := w.cache.Read("d", "reader")
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != "v1" {
		t.Fatalf("first read = %q, expected the pre-write snapshot", first)
	}
	// The stale result must not have been cached: the next read
	// re-executes and sees v2.
	second, err := w.cache.Read("d", "reader")
	if err != nil {
		t.Fatal(err)
	}
	if string(second) != "v2-during-read" {
		t.Fatalf("second read = %q — stale entry was installed despite mid-read invalidation", second)
	}
}

// TestConcurrentStress drives every externally visible cache operation
// from many goroutines over overlapping (document, user) pairs. It
// asserts no data corruption (every read returns some complete version
// of the document, never torn bytes) and that the cache converges to a
// consistent state; the -race build catches synchronization bugs.
func TestConcurrentStress(t *testing.T) {
	const (
		docs       = 6
		users      = 4
		goroutines = 8
		opsEach    = 400
	)
	w := newWorld(t, Options{Capacity: 1 << 16})
	versions := make(map[string]bool) // every value ever written, per doc prefix
	var versionsMu sync.Mutex
	docID := func(i int) string { return fmt.Sprintf("sd%d", i) }
	for i := 0; i < docs; i++ {
		id := docID(i)
		seedData := []byte(fmt.Sprintf("%s|v0", id))
		w.addDoc(t, id, "owner", "/"+id, seedData)
		versions[string(seedData)] = true
		for u := 1; u < users; u++ {
			w.space.AddReference(id, fmt.Sprintf("user-%d", u))
		}
	}
	userID := func(i int) string {
		if i == 0 {
			return "owner"
		}
		return fmt.Sprintf("user-%d", i)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 42))
			for op := 0; op < opsEach; op++ {
				doc := docID(rng.Intn(docs))
				user := userID(rng.Intn(users))
				switch r := rng.Intn(100); {
				case r < 55: // read
					data, err := w.cache.Read(doc, user)
					if err != nil {
						t.Errorf("Read(%s,%s): %v", doc, user, err)
						return
					}
					if !bytes.HasPrefix(data, []byte(doc+"|")) {
						t.Errorf("torn read for %s: %q", doc, data)
						return
					}
					versionsMu.Lock()
					known := versions[string(data)]
					versionsMu.Unlock()
					if !known {
						t.Errorf("read returned bytes never written: %q", data)
						return
					}
				case r < 70: // write a fresh version
					v := []byte(fmt.Sprintf("%s|g%d-op%d", doc, g, op))
					versionsMu.Lock()
					versions[string(v)] = true
					versionsMu.Unlock()
					if err := w.cache.Write(doc, user, v); err != nil {
						t.Errorf("Write(%s,%s): %v", doc, user, err)
						return
					}
				case r < 85: // invalidate one entry or a whole doc
					if rng.Intn(2) == 0 {
						w.cache.Invalidate(doc, user)
					} else {
						w.cache.InvalidateDoc(doc)
					}
				case r < 95: // resize provokes eviction churn
					w.cache.Resize(int64(1<<12 + rng.Intn(1<<16)))
				default: // metadata probes
					w.cache.Contains(doc, user)
					w.cache.Len()
					_ = w.cache.Stats().HitRatio()
				}
			}
		}(g)
	}
	wg.Wait()

	// Quiesce and check convergent bookkeeping.
	st := w.cache.Stats()
	if st.BytesStored < 0 || st.BytesLogical < 0 || st.SharedEntries < 0 {
		t.Fatalf("negative gauges after stress: %+v", st)
	}
	if st.Hits+st.Misses == 0 {
		t.Fatal("stress harness performed no reads")
	}
	// Every entry still cached must serve its exact stored bytes.
	for i := 0; i < docs; i++ {
		for u := 0; u < users; u++ {
			data, err := w.cache.Read(docID(i), userID(u))
			if err != nil {
				t.Fatalf("post-stress read: %v", err)
			}
			if !bytes.HasPrefix(data, []byte(docID(i)+"|")) {
				t.Fatalf("post-stress torn read: %q", data)
			}
		}
	}
}

// countingProvider wraps a fixed payload and counts Open calls — the
// observable "did the read path run" signal for single-flight tests.
// Open blocks until release is closed so a test can pile up concurrent
// misses behind one fetch.
type countingProvider struct {
	payload []byte
	opens   atomic.Int64
	release chan struct{}
	fail    bool
}

func (p *countingProvider) Name() string { return "bits:counting" }

func (p *countingProvider) Open(ctx *property.ReadContext) ([]byte, error) {
	p.opens.Add(1)
	if p.release != nil {
		<-p.release
	}
	if p.fail {
		return nil, fmt.Errorf("counting provider: simulated source failure")
	}
	return p.payload, nil
}

func (p *countingProvider) Store(*property.WriteContext, []byte) error {
	return fmt.Errorf("counting provider is read-only")
}

func (p *countingProvider) ReadCurrent() ([]byte, error) {
	return append([]byte{}, p.payload...), nil
}

// TestSingleFlightCoalescesConcurrentMisses is the single-flight
// correctness test from ISSUE 1: K = 32 concurrent misses on one
// (document, user) key must trigger exactly one bit-provider fetch —
// one read-path execution — while the other K−1 callers block and
// receive the same result.
func TestSingleFlightCoalescesConcurrentMisses(t *testing.T) {
	const K = 32
	w := newWorld(t, Options{})
	provider := &countingProvider{
		payload: []byte("coalesced-content"),
		release: make(chan struct{}),
	}
	if _, err := w.space.CreateDocument("d", "u", provider); err != nil {
		t.Fatal(err)
	}

	results := make([][]byte, K)
	errs := make([]error, K)
	var started, done sync.WaitGroup
	for i := 0; i < K; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			results[i], errs[i] = w.cache.Read("d", "u")
		}(i)
	}
	started.Wait()
	// Let every goroutine reach the miss path while the leader is
	// parked inside the provider, then release the fetch. Stragglers
	// that arrive after the install turn into hits — either way the
	// provider must have run exactly once.
	for deadline := time.Now().Add(5 * time.Second); provider.opens.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no goroutine reached the bit-provider")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(provider.release)
	done.Wait()

	if n := provider.opens.Load(); n != 1 {
		t.Fatalf("bit-provider fetched %d times for %d concurrent misses, want exactly 1", n, K)
	}
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if string(results[i]) != "coalesced-content" {
			t.Fatalf("reader %d got %q", i, results[i])
		}
	}
	st := w.cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single read-path execution)", st.Misses)
	}
	if st.CoalescedMisses+st.Hits != K-1 {
		t.Fatalf("coalesced(%d) + hits(%d) != %d", st.CoalescedMisses, st.Hits, K-1)
	}
}

// TestSingleFlightPropagatesError: when the coalesced read path fails,
// every waiter gets the error, the fetch still ran only once, and a
// later read retries (a failed flight must not wedge the key).
func TestSingleFlightPropagatesError(t *testing.T) {
	w := newWorld(t, Options{})
	provider := &countingProvider{
		payload: []byte("x"),
		release: make(chan struct{}),
		fail:    true,
	}
	if _, err := w.space.CreateDocument("d", "u", provider); err != nil {
		t.Fatal(err)
	}
	const K = 8
	errs := make([]error, K)
	var done sync.WaitGroup
	for i := 0; i < K; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			_, errs[i] = w.cache.Read("d", "u")
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(provider.release)
	done.Wait()
	if n := provider.opens.Load(); n != 1 {
		t.Fatalf("failed fetch ran %d times, want 1", n)
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("reader %d got nil error from failed flight", i)
		}
	}
	// The key must not be wedged: the next read starts a fresh flight.
	provider.fail = false
	provider.release = nil
	if data := w.read(t, "d", "u"); string(data) != "x" {
		t.Fatalf("retry after failed flight = %q", data)
	}
}

// panicOnce is a memoizable transform that upper-cases, except that
// its first execution waits for gate (when non-nil) and then panics —
// property code is arbitrary by the paper's design.
func panicOnce(gate chan struct{}) *property.Transformer {
	var fired atomic.Bool
	return &property.Transformer{
		Base: property.Base{PropName: "panic-once"},
		ReadTransform: func(b []byte) []byte {
			if !fired.Swap(true) {
				if gate != nil {
					<-gate
				}
				panic("panic-once: transform blew up")
			}
			return bytes.ToUpper(b)
		},
		MemoID: "panic-once",
	}
}

// readRecovering reads like a per-request recovering server would:
// a panic in property code comes back as panicked, not as a crash.
func readRecovering(c *Cache, doc, user string) (data []byte, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	data, err = c.Read(doc, user)
	return data, err, false
}

// errWedged is readWithin's verdict on a read that never came back.
var errWedged = errors.New("still blocked after 5s: the panicked flight wedged its key")

// readWithin is readRecovering under the test's own timeout: the bug
// this guards against is a hang, which must fail the test, not the run.
func readWithin(c *Cache, doc, user string) ([]byte, error) {
	type result struct {
		data []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		data, err, _ := readRecovering(c, doc, user)
		done <- result{data, err}
	}()
	select {
	case r := <-done:
		return r.data, r.err
	case <-time.After(5 * time.Second):
		return nil, errWedged
	}
}

// TestPanickingTransformDoesNotWedgeKey: a transform that panics while
// leading a flight must leave the key usable. Without the deferred
// finish the flight stays registered and never closes, and under a
// server that recovers panics per request every later read of that
// (doc, user) — or, for a cut, of that prefix from any user — blocks
// for the life of the process.
func TestPanickingTransformDoesNotWedgeKey(t *testing.T) {
	for _, tc := range []struct {
		name    string
		memoize bool
		level   docspace.Level
		second  string // who reads after the panic
	}{
		// The panic unwinds amy's (doc, user) flight; amy reads again.
		{"entry flight", false, docspace.Personal, "amy"},
		// The panic unwinds the universal cut's flight, which bob —
		// who never had a flight of his own — must not find wedged.
		{"cut flight", true, docspace.Universal, "bob"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, Options{Memoize: tc.memoize})
			w.addDoc(t, "d", "amy", "/d", []byte("quiet words"))
			if _, err := w.space.AddReference("d", "bob"); err != nil {
				t.Fatal(err)
			}
			owner := ""
			if tc.level == docspace.Personal {
				owner = "amy"
			}
			if err := w.space.Attach("d", owner, tc.level, panicOnce(nil)); err != nil {
				t.Fatal(err)
			}

			if _, _, panicked := readRecovering(w.cache, "d", "amy"); !panicked {
				t.Fatal("the first read did not panic; the test exercises nothing")
			}
			for _, u := range []string{tc.second, "amy"} {
				data, err := readWithin(w.cache, "d", u)
				if err != nil || string(data) != "QUIET WORDS" {
					t.Fatalf("read by %s after the panic = %q, %v", u, data, err)
				}
			}
		})
	}

	// A follower already waiting when its leader panics is released
	// with the typed error (or, if it arrived late, leads a read of its
	// own) — it never waits on a flight nobody will finish.
	t.Run("waiting follower", func(t *testing.T) {
		w := newWorld(t, Options{})
		w.addDoc(t, "d", "amy", "/d", []byte("quiet words"))
		gate := make(chan struct{})
		if err := w.space.Attach("d", "amy", docspace.Personal, panicOnce(gate)); err != nil {
			t.Fatal(err)
		}
		leader := make(chan bool, 1)
		go func() {
			_, _, panicked := readRecovering(w.cache, "d", "amy")
			leader <- panicked
		}()
		k := Key("d", "amy")
		sh := w.cache.tab.shardFor(k)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			sh.mu.Lock()
			leading := sh.flights[k] != nil
			sh.mu.Unlock()
			if leading {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the leader never registered its flight")
			}
		}
		follower := make(chan error, 1)
		go func() {
			_, err := readWithin(w.cache, "d", "amy")
			follower <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the follower join
		close(gate)
		if !<-leader {
			t.Fatal("the panic did not continue in the leader")
		}
		if err := <-follower; err != nil && !errors.Is(err, ErrReadAborted) {
			t.Fatalf("follower of a panicked leader got %v, want ErrReadAborted", err)
		}
		if data, err := readWithin(w.cache, "d", "amy"); err != nil || string(data) != "QUIET WORDS" {
			t.Fatalf("read after the panic = %q, %v", data, err)
		}
	})
}

// TestConcurrentStressEntriesAndCuts drives the one index holding both
// kinds of record: K users per document over a shared universal prefix
// (so every miss leads or joins cut flights as well as its own), with
// Invalidate, InvalidateDoc and a budget of a few entries churning the
// table underneath. It asserts that a resident cut is never computed
// twice, that Len() counts exactly the live (doc, user) entries, and
// that every gauge returns to zero with the last drop.
func TestConcurrentStressEntriesAndCuts(t *testing.T) {
	const (
		docs   = 3
		rounds = 4
	)
	users := memoUsers(8)
	w := newWorld(t, Options{Memoize: true})
	docID := func(i int) string { return fmt.Sprintf("md%d", i) }
	want := make(map[string][]byte) // Key(doc, user) → the one legal body
	for i := 0; i < docs; i++ {
		id := docID(i)
		w.addDoc(t, id, users[0], "/"+id, []byte(fmt.Sprintf("teh body of %s\nrecieve it\n", id)))
		for _, p := range []property.Active{property.NewSpellCorrector(0), property.NewLineNumberer(0)} {
			if err := w.space.Attach(id, "", docspace.Universal, p); err != nil {
				t.Fatal(err)
			}
		}
		for j, u := range users {
			if j > 0 {
				if _, err := w.space.AddReference(id, u); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.space.Attach(id, u, docspace.Personal, property.NewWatermarker(u, 0)); err != nil {
				t.Fatal(err)
			}
			body, _, err := w.space.ReadDocument(id, u)
			if err != nil {
				t.Fatal(err)
			}
			want[Key(id, u)] = body
		}
	}
	readAll := func(extra func(rng *rand.Rand, doc, user string)) {
		var wg sync.WaitGroup
		for r := 0; r < rounds; r++ {
			for i := 0; i < docs; i++ {
				for j, u := range users {
					wg.Add(1)
					go func(seed int64, doc, u string) {
						defer wg.Done()
						data, err := w.cache.Read(doc, u)
						if err != nil {
							t.Errorf("Read(%s,%s): %v", doc, u, err)
						} else if !bytes.Equal(data, want[Key(doc, u)]) {
							t.Errorf("Read(%s,%s) = %q, want %q", doc, u, data, want[Key(doc, u)])
						}
						if extra != nil {
							extra(rand.New(rand.NewSource(seed)), doc, u)
						}
					}(int64(r*1000+i*100+j), docID(i), u)
				}
			}
		}
		wg.Wait()
	}

	// Nothing is dropped in this phase, so each (source, fingerprint)
	// runs its segment exactly once however the misses interleave: two
	// universal cuts per document, one personal cut per (doc, user).
	readAll(nil)
	cuts := int64(docs * (2 + len(users)))
	st := w.cache.Stats()
	if st.PrefixSegmentRuns != cuts || st.UniversalStageRuns != docs || st.IntermediateEntries != cuts {
		t.Fatalf("segment runs = %d, universal runs = %d, cuts resident = %d; want %d, %d, %d (one run per resident cut)",
			st.PrefixSegmentRuns, st.UniversalStageRuns, st.IntermediateEntries, cuts, docs, cuts)
	}
	if n := w.cache.Len(); n != docs*len(users) {
		t.Fatalf("Len() = %d with %d cuts beside %d entries, want the entries only", n, cuts, docs*len(users))
	}

	// Churn: a budget of about three bodies, and a drop after most reads.
	w.cache.Resize(int64(3 * len(want[Key(docID(0), users[0])])))
	readAll(func(rng *rand.Rand, doc, u string) {
		switch rng.Intn(4) {
		case 0:
			w.cache.Invalidate(doc, u)
		case 1:
			w.cache.InvalidateDoc(doc)
		case 2:
			w.cache.Len()
			w.cache.Stats()
		}
	})
	live := 0
	for k := range want {
		doc, u := splitKey(k)
		if w.cache.Contains(doc, u) {
			live++
		}
	}
	st = w.cache.Stats()
	if n := w.cache.Len(); n != live {
		t.Fatalf("Len() = %d, but %d (doc, user) entries are live (%d cuts resident)", n, live, st.IntermediateEntries)
	}
	if st.PrefixInstalls != st.PrefixSegmentRuns {
		t.Fatalf("PrefixInstalls = %d, PrefixSegmentRuns = %d: a computed cut was not installed, or one was installed twice", st.PrefixInstalls, st.PrefixSegmentRuns)
	}

	for i := 0; i < docs; i++ {
		w.cache.InvalidateDoc(docID(i))
	}
	st = w.cache.Stats()
	if w.cache.Len() != 0 || st.IntermediateEntries != 0 || st.IntermediateBytes != 0 || st.BytesLogical != 0 || st.BytesStored != 0 || st.SharedEntries != 0 {
		t.Fatalf("after the last drop: Len() = %d, stats = %+v; want every gauge at zero", w.cache.Len(), st)
	}
}
