package sim

// Named regression schedules: each test pins one historically subtle
// interleaving as a deterministic scenario through the sim harness, so
// a reintroduced bug fails a test with a name instead of a seed sweep.

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/obs"
	"placeless/internal/property"
	"placeless/internal/remote"
	"placeless/internal/server"
	"placeless/internal/stream"
)

// scheduleWorld builds a pinned world for a scripted schedule: remote
// off unless asked.
func scheduleWorld(t *testing.T, seed int64, mut func(*Config)) *World {
	t.Helper()
	off := false
	cfg := Config{Seed: seed, Remote: &off}
	if mut != nil {
		mut(&cfg)
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// expect renders what a read of (doc, user) must return once src is
// the document's stored content.
func expect(w *World, doc, user string, src []byte) []byte {
	return w.model.docs[doc].render(src, user)
}

// warmRemoteKey builds a remote-cache world on a clean wire and returns
// a key the remote cache holds after a read: it searches seeds for one
// whose content the remote cache actually stores (cacheability is
// seed-derived), which the reconnect schedules need — a cached
// pre-kill entry is what could go stale.
func warmRemoteKey(t *testing.T) (w *World, doc, owner string) {
	t.Helper()
	on := true
	rcap := int64(1 << 20)
	for seed := int64(1); ; seed++ {
		w = scheduleWorld(t, seed, func(c *Config) {
			c.Remote = &on
			c.RemoteCapacity = &rcap
		})
		// Half the seeds boot with a lossy wire; these schedules need a
		// clean one until the scripted kill.
		w.net.SetFaults(0, 0, 0, 0)
		if err := w.settle(); err != nil {
			t.Fatal(err)
		}
		for _, id := range w.model.order {
			u := w.model.docs[id].users[0]
			// Warm, then re-read: a Hit means the entry is cached.
			err := w.guarded("warm-read", func() error {
				if _, e := w.rc.Read(id, u); e != nil {
					return e
				}
				_, e := w.rc.Read(id, u)
				return e
			})
			if err != nil {
				t.Fatal(err)
			}
			if w.rc.Stats().Hits > 0 {
				return w, id, u
			}
		}
	}
}

// TestKillRestartFreshness pins reconnect freshness: a remote cache
// whose connection was killed while a write landed must, after
// reconnect and settling, serve the new content — the epoch flush and
// the suspect window may not let the pre-kill copy linger.
func TestKillRestartFreshness(t *testing.T) {
	w, doc, owner := warmRemoteKey(t)
	// Partition before killing the connections so reconnect attempts
	// cannot complete: the write below must land while the remote side
	// is provably down, guaranteeing its push invalidation is lost.
	w.net.Partition()
	w.net.BreakConns()
	next := []byte("post-kill")
	if err := w.guarded("write", func() error {
		return w.cache.Write(doc, owner, next)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.settle(); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := w.guarded("post-settle-read", func() error {
		var e error
		got, e = w.rc.Read(doc, owner)
		return e
	}); err != nil {
		t.Fatal(err)
	}
	if want := expect(w, doc, owner, next); !bytes.Equal(got, want) {
		t.Fatalf("remote read after kill+write+settle: got %q, want %q", got, want)
	}
}

// TestScheduleChangeAfterReconnectBeforeReread pins what took the place
// of the subscription replay. A reconnect flushes the remote cache; its
// subscriptions died with the old connection and nothing is re-sent. A
// write that lands after the reconnect and before the key's next read is
// therefore pushed to no one, which is safe because nothing is cached —
// but the re-read must carry the subscription again. Every miss does,
// and an entry goes in only if its own response confirmed the notifiers
// on the live connection; a read that installed without them would
// leave the read after the second write below stale for ever.
func TestScheduleChangeAfterReconnectBeforeReread(t *testing.T) {
	w, doc, owner := warmRemoteKey(t)
	pushed := w.rc.Stats().Invalidations
	for _, op := range []func() error{
		w.doBreakConns,
		w.doSettle, // reconnected, flushed, nothing replayed
		func() error { return w.doWrite(doc) },
		func() error { return w.doRemoteRead(doc, owner) },
		func() error { return w.doRemoteRead(doc, owner) },
		func() error { return w.doWrite(doc) },
		w.doSettle,
		func() error { return w.doRemoteRead(doc, owner) },
	} {
		if err := op(); err != nil {
			t.Fatalf("%v\n%s", err, w.tr.String())
		}
	}
	st := w.rc.Stats()
	if st.Reconnects == 0 || st.EpochFlushes == 0 {
		t.Fatalf("the schedule never reconnected: %+v", st)
	}
	if st.Invalidations == pushed {
		t.Fatal("the write after the re-read pushed no invalidation: the re-read did not subscribe")
	}
}

// TestScheduleReadBeforeCreate pins the op order the generated
// workload never produces (its documents all exist before the first
// read): a remote read of a document that does not exist yet, then the
// create, a read, a write and a settle. The failed first read's
// subscription must not be remembered as live by the server, or the
// post-settle read serves the pre-write bytes and the oracle flags it.
func TestScheduleReadBeforeCreate(t *testing.T) {
	on := true
	rcap := int64(1 << 20)
	single := 0
	w := scheduleWorld(t, 23, func(c *Config) {
		c.Remote = &on
		c.RemoteCapacity = &rcap
		c.Cluster = &single
	})
	// Half the seeds boot with a lossy wire; this schedule needs every
	// call answered.
	w.net.SetFaults(0, 0, 0, 0)
	if err := w.doSettle(); err != nil {
		t.Fatal(err)
	}

	const doc, owner = "epsilon", "amy"
	err := w.guarded("read-before-create", func() error {
		_, e := w.rc.Read(doc, owner)
		return e
	})
	if err == nil || errors.Is(err, remote.ErrDegraded) {
		t.Fatalf("read before create: err = %v, want a document-level error", err)
	}
	w.endOp()

	content := []byte("doc:epsilon:v1")
	w.src.Store("/"+doc, content)
	if _, err := w.space.CreateDocument(doc, owner, &property.RepoBitProvider{Repo: w.src, Path: "/" + doc}); err != nil {
		t.Fatal(err)
	}
	w.model.addDoc(doc, []string{owner}, content, w.clk.Now())
	w.endOp()

	for _, op := range []func() error{
		func() error { return w.doRemoteRead(doc, owner) },
		func() error { return w.doWrite(doc) },
		w.doSettle,
		func() error { return w.doRemoteRead(doc, owner) },
	} {
		if err := op(); err != nil {
			t.Fatalf("%v\n%s", err, w.tr.String())
		}
	}
	if w.rc.Stats().Invalidations == 0 {
		t.Fatal("the write pushed no invalidation to the remote cache")
	}
}

// firstReadHook is a test property that touches no bytes and fires a
// callback the first time a read wraps it: inside the miss, after the
// read snapshotted the chain it will execute and before anything is
// installed.
type firstReadHook struct {
	property.Base
	fire func()
}

func (h *firstReadHook) WrapInput(*property.ReadContext) stream.Transform {
	if f := h.fire; f != nil {
		h.fire = nil
		f()
	}
	return nil
}

// TestScheduleChangeDuringFirstMiss pins an order the generated
// workload cannot produce, because its ops run one after another: a
// universal attach landing inside a key's first miss. The cache must
// have its notifiers on the document before that read starts; attached
// after the install, the attach invalidates nothing, the pre-attach
// bytes stay cached, and the second read is stale for ever.
func TestScheduleChangeDuringFirstMiss(t *testing.T) {
	w := scheduleWorld(t, 29, nil)
	const doc, owner = "epsilon", "amy"
	content := []byte("doc:epsilon:v1")
	w.src.Store("/"+doc, content)
	if _, err := w.space.CreateDocument(doc, owner, &property.RepoBitProvider{Repo: w.src, Path: "/" + doc}); err != nil {
		t.Fatal(err)
	}
	w.model.addDoc(doc, []string{owner}, content, w.clk.Now())
	w.endOp()

	var hookErr error
	hook := &firstReadHook{Base: property.Base{PropName: "first-read-hook"}}
	hook.fire = func() { hookErr = w.attachProp(doc, "", docspace.Universal) }
	if err := w.space.Attach(doc, owner, docspace.Personal, hook); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if err := w.doLocalRead(doc, owner); err != nil {
			t.Fatalf("read %d: %v\n%s", i+1, err, w.tr.String())
		}
		if hookErr != nil {
			t.Fatal(hookErr)
		}
	}
	if len(w.model.docs[doc].universal) != 1 {
		t.Fatal("the first read never fired the attach")
	}
}

// TestScheduleWriteDuringCutFlight pins a write landing while a prefix
// cut is computing, i.e. inside both the reader's (doc, user) flight
// and the cut's (source signature, fingerprint) flight, which share one
// table. The cut may install — its key names the old source, so the
// bytes are right for it and nothing will ask for it again — but the
// (doc, user) entry must not: the write bumped the generation the miss
// snapshotted. The racing write is injected from the memoizable
// transform itself, so it always lands mid-compute.
func TestScheduleWriteDuringCutFlight(t *testing.T) {
	on := true
	w := scheduleWorld(t, 31, func(c *Config) { c.Memoize = &on })
	const doc, owner = "zeta", "amy"
	content := []byte("doc:zeta:v1")
	w.src.Store("/"+doc, content)
	if _, err := w.space.CreateDocument(doc, owner, &property.RepoBitProvider{Repo: w.src, Path: "/" + doc}); err != nil {
		t.Fatal(err)
	}
	w.model.addDoc(doc, []string{owner}, content, w.clk.Now())
	w.endOp()

	var fire func()
	upper := &property.Transformer{
		Base: property.Base{PropName: "cut-flight-hook"},
		ReadTransform: func(b []byte) []byte {
			if f := fire; f != nil {
				fire = nil
				f()
			}
			return bytes.ToUpper(b)
		},
		Version: 1,
		MemoID:  "upper",
	}
	if err := w.space.Attach(doc, "", docspace.Universal, upper); err != nil {
		t.Fatal(err)
	}
	d := w.model.docs[doc]
	d.universal = append(d.universal, chainProp{name: upper.PropName, version: 1, fn: bytes.ToUpper, kind: 1, memo: upper.MemoID})
	w.model.syncOpens(doc, d.users, w.clk.Now(), w.clk.Now())
	w.endOp()

	var hookErr error
	fire = func() {
		v2 := []byte("doc:zeta:v2")
		t0 := w.clk.Now()
		hookErr = w.cache.Write(doc, owner, v2)
		w.model.applyWrite(doc, v2, t0, w.clk.Now())
	}
	read := func(what string) {
		t.Helper()
		if err := w.doLocalRead(doc, owner); err != nil {
			t.Fatalf("%s: %v\n%s", what, err, w.tr.String())
		}
		if hookErr != nil {
			t.Fatal(hookErr)
		}
	}

	read("read racing the write")
	if fire != nil {
		t.Fatal("the first read never ran the transform")
	}
	if w.cache.Contains(doc, owner) {
		t.Fatal("the miss installed its (doc, user) entry although a write landed inside it")
	}
	read("read after the write") // the oracle holds it to v2's bytes
	read("warm read")
	st := w.cache.Stats()
	if st.Misses != 2 || st.Hits != 1 || st.PrefixSegmentRuns != 2 {
		t.Fatalf("misses = %d, hits = %d, segment runs = %d; want 2, 1, 2 (v1's cut and v2's, one run each)", st.Misses, st.Hits, st.PrefixSegmentRuns)
	}
}

// TestScheduleWriteDuringWarm pins a second write landing while the
// warm that followed a first one is re-deriving the document's view:
// read (the universal cut is resident), write v1 (which strands the cut
// and marks the document), Warm — whose transform is held until v2 has
// been written from inside it — then read. The warm snapshotted the
// generation before v2, so its (doc, user) entry must not install; the
// read after it is held to v2 by the oracle, and would be served the
// warm's v1 bytes if the warm skipped the generation guard.
func TestScheduleWriteDuringWarm(t *testing.T) {
	on := true
	w := scheduleWorld(t, 37, func(c *Config) { c.Memoize = &on })
	const doc, owner = "eta", "amy"
	content := []byte("doc:eta:v0")
	w.src.Store("/"+doc, content)
	if _, err := w.space.CreateDocument(doc, owner, &property.RepoBitProvider{Repo: w.src, Path: "/" + doc}); err != nil {
		t.Fatal(err)
	}
	w.model.addDoc(doc, []string{owner}, content, w.clk.Now())
	w.endOp()

	var hold func()
	upper := &property.Transformer{
		Base: property.Base{PropName: "warm-hold"},
		ReadTransform: func(b []byte) []byte {
			if f := hold; f != nil {
				hold = nil
				f()
			}
			return bytes.ToUpper(b)
		},
		Version: 1,
		MemoID:  "upper",
	}
	if err := w.space.Attach(doc, "", docspace.Universal, upper); err != nil {
		t.Fatal(err)
	}
	d := w.model.docs[doc]
	d.universal = append(d.universal, chainProp{name: upper.PropName, version: 1, fn: bytes.ToUpper, kind: 1, memo: upper.MemoID})
	w.model.syncOpens(doc, d.users, w.clk.Now(), w.clk.Now())
	w.endOp()

	write := func(v string) {
		t.Helper()
		t0 := w.clk.Now()
		if err := w.cache.Write(doc, owner, []byte(v)); err != nil {
			t.Fatal(err)
		}
		w.model.applyWrite(doc, []byte(v), t0, w.clk.Now())
	}
	read := func(what string) {
		t.Helper()
		if err := w.doLocalRead(doc, owner); err != nil {
			t.Fatalf("%s: %v\n%s", what, err, w.tr.String())
		}
	}

	read("read that makes the universal cut resident")
	write("doc:eta:v1")
	hold = func() { write("doc:eta:v2") }
	w.cache.Warm(doc, owner)
	if hold != nil {
		t.Fatal("the warm never ran the transform: v1's write left no mark")
	}
	if w.cache.Contains(doc, owner) {
		t.Fatal("the warm installed its (doc, user) entry although v2 landed inside it")
	}
	read("read after the warm") // the oracle holds it to v2's bytes
	// The source's verifier would also refuse a v1 entry on that hit;
	// a rejection here means the entry was installed.
	if st := w.cache.Stats(); st.Prefetches != 1 || st.Hits != 0 || st.VerifierRejects != 0 {
		t.Fatalf("prefetches = %d, hits = %d, verifier rejects = %d; want the one warm, and nothing installed by it", st.Prefetches, st.Hits, st.VerifierRejects)
	}
}

// TestScheduleKillRestartDiskTier pins the durable tier's warm-restart
// contract under the stale-read oracle: a killed cache's successor must
// recover the warm working set from disk (≥90% of untouched entries
// promote without running a transform), must refuse entries for the
// document rewritten out-of-band while the process was down, and every
// post-restart read must be byte-legal against the model.
func TestScheduleKillRestartDiskTier(t *testing.T) {
	on := true
	// Only fully-memoizable chains demote to disk (the tier's content
	// keys cannot capture a property that refused memoization), so the
	// 100%-recovery schedule needs a world whose every chain opted in:
	// all universal transforms carry a memo id and no user attached a
	// personal transform (the catalog's personal transforms never
	// opt in).
	memoizableWorld := func(w *World) bool {
		for _, id := range w.model.order {
			d := w.model.docs[id]
			for _, p := range d.universal {
				if p.memo == "" {
					return false
				}
			}
			for _, u := range d.users {
				if len(d.personal[u]) > 0 {
					return false
				}
			}
		}
		return true
	}
	var w *World
	// Deterministically find a seed whose world has ≥ 2 documents (one
	// to mutate while down, the rest untouched) and demotes everything.
	for seed := int64(1); ; seed++ {
		w = scheduleWorld(t, seed, func(c *Config) { c.Durable = &on })
		if len(w.model.order) >= 2 && memoizableWorld(w) {
			break
		}
	}

	read := func(doc, user string) ([]byte, core.EntryInfo) {
		t.Helper()
		t0 := w.clk.Now()
		var data []byte
		var info core.EntryInfo
		if err := w.guarded("read", func() error {
			body, i, e := w.cache.ReadWithInfo(doc, user)
			data, info = body.Bytes(), i
			return e
		}); err != nil {
			t.Fatalf("read %s/%s: %v", doc, user, err)
		}
		w.endOp()
		if err := w.checkLocal(doc, user, data, t0); err != nil {
			t.Fatal(err)
		}
		return data, info
	}

	// Write one document through the system (bumping its epoch and
	// invalidating its entries), then warm every (doc, user) pair so
	// each is freshly demoted at its current generation.
	if err := w.doWrite(w.model.order[0]); err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, id := range w.model.order {
		for _, u := range w.model.docs[id].users {
			read(id, u)
			pairs++
		}
	}
	if d := w.cache.Stats().StoreDemotions; d == 0 {
		t.Fatal("warm phase demoted nothing to the disk tier")
	}

	// Crash. The successor recovers from the same store directory.
	if err := w.guarded("restart", func() error { return w.restartDurable() }); err != nil {
		t.Fatal(err)
	}

	// Rewrite one document's backing bits out-of-band. No process was
	// up to see it, so no epoch records it: only the content-key probe
	// at promotion time stands between the disk copy and a stale serve.
	// (Promotion is lazy — mutating now, before any read, is
	// indistinguishable from mutating while down.)
	mutated := w.model.order[1]
	if err := w.doUpdateDirect(mutated); err != nil {
		t.Fatal(err)
	}

	promoted, untouched := 0, 0
	for _, id := range w.model.order {
		for _, u := range w.model.docs[id].users {
			data, info := read(id, u)
			want := w.model.current(id, u)
			if !bytes.Equal(data, want) {
				t.Fatalf("post-restart read %s/%s = %q, model says %q", id, u, truncate(data), truncate(want))
			}
			if id == mutated {
				if info.Verdict == obs.VerdictDisk {
					t.Fatalf("%s/%s: entry for the out-of-band-rewritten document promoted from disk", id, u)
				}
				continue
			}
			untouched++
			if info.Verdict == obs.VerdictDisk {
				promoted++
			}
		}
	}
	if untouched == 0 {
		t.Fatal("no untouched pairs to measure recovery on")
	}
	if promoted*10 < untouched*9 {
		t.Fatalf("recovered %d/%d untouched entries from disk, want ≥90%%", promoted, untouched)
	}
	if st := w.cache.Stats(); st.StorePromotions != int64(promoted) {
		t.Fatalf("StorePromotions = %d, counted %d disk verdicts", st.StorePromotions, promoted)
	}

	// The recovered entries are real cache entries: the next pass hits.
	for _, id := range w.model.order {
		for _, u := range w.model.docs[id].users {
			if _, info := read(id, u); info.Verdict != obs.VerdictHit {
				t.Fatalf("%s/%s: second post-restart read not a hit", id, u)
			}
		}
	}
}

// TestScheduleKillDuringRebalance pins the cluster's hardest window:
// a node dies, a new node joins while it is down (ownership moves mid-
// death), and a write lands mid-rebalance. Every read through the
// router — during the window and after the random schedule takes over
// — must stay byte-legal under the per-node staleness oracle, and the
// final state must converge on every node.
func TestScheduleKillDuringRebalance(t *testing.T) {
	on := true
	three := 3
	w := scheduleWorld(t, 31, func(c *Config) {
		c.Remote = &on
		c.Cluster = &three
		c.Ops = 200
	})
	w.net.SetFaults(0, 0, 0, 0)
	if err := w.doSettle(); err != nil {
		t.Fatal(err)
	}

	// Warm every key through the router so the owners' caches hold
	// copies a stale-serving bug could expose.
	forEachKey := func(fn func(doc, user string)) {
		for _, id := range w.model.order {
			for _, u := range w.model.docs[id].users {
				fn(id, u)
			}
		}
	}
	forEachKey(func(doc, user string) {
		if err := w.doClusterRead(doc, user); err != nil {
			t.Fatal(err)
		}
	})

	// Kill the primary owner of the first key, so at least that key's
	// reads must cope with a dead primary.
	doc0 := w.model.order[0]
	user0 := w.model.docs[doc0].users[0]
	victim := w.cl.Owners(doc0, user0)[0]
	w.tr.add(w.opIdx, w.clk.Now(), "cluster-kill", victim)
	w.net.BreakConnsTo("srv-" + victim)

	// Join a fresh node while the victim is down: ownership moves
	// during the outage.
	if err := w.guarded("cluster-join", func() error { return w.addClusterNode() }); err != nil {
		t.Fatalf("join on a clean wire must succeed: %v", err)
	}

	// A write lands mid-rebalance; its invalidations must reach every
	// replica that matters (or be covered by the suspect window).
	if err := w.doWrite(doc0); err != nil {
		t.Fatal(err)
	}

	// Every key must still read legally through the router, dead
	// primary and half-moved ring notwithstanding.
	forEachKey(func(doc, user string) {
		if err := w.doClusterRead(doc, user); err != nil {
			t.Fatal(err)
		}
	})

	// Then the random schedule takes over (more kills, joins, leaves,
	// faults), and the lost-write detector closes the run.
	for i := 0; i < w.cfg.Ops; i++ {
		if err := w.step(i); err != nil {
			t.Fatal(err)
		}
	}
	w.opIdx = w.cfg.Ops
	if err := w.finalCheck(); err != nil {
		t.Fatal(err)
	}
	if reb := w.cl.Stats().Rebalances; reb < 4 {
		t.Fatalf("Rebalances = %d, want ≥ 4 (3 boot joins + the scripted join)", reb)
	}
}

// TestScheduleFlashCrowdCluster pins the flash-crowd window: a write
// invalidates one hot key everywhere, then a burst of concurrent reads
// — the E18 spike, ~100x a key's normal concurrency — slams that key
// through the router. Every served byte must stay legal under the
// per-node staleness oracle, and the single-flight hold must absorb
// the crowd: the origin may run the document's transform chain at most
// once per non-coalesced miss, not once per reader.
func TestScheduleFlashCrowdCluster(t *testing.T) {
	on := true
	three := 3
	// Find a seed whose router-warmed key actually caches on a node
	// (cacheability is seed-derived): the spike needs node copies for
	// the write to invalidate.
	var (
		w           *World
		doc0, user0 string
	)
	liveStats := func() (hits, coalesced int64) {
		for _, n := range w.clNodes {
			if !n.closed {
				st := n.rc.Stats()
				hits += st.Hits
				coalesced += st.CoalescedMisses
			}
		}
		return
	}
seeds:
	for seed := int64(1); ; seed++ {
		w = scheduleWorld(t, seed, func(c *Config) {
			c.Remote = &on
			c.Cluster = &three
			c.Ops = 150
		})
		w.net.SetFaults(0, 0, 0, 0)
		if err := w.doSettle(); err != nil {
			t.Fatal(err)
		}
		for _, id := range w.model.order {
			u := w.model.docs[id].users[0]
			// Warm, then re-read: a node hit proves the key caches.
			err := w.guarded("warm-read", func() error {
				if _, _, e := w.cl.ReadVia(id, u); e != nil {
					return e
				}
				_, _, e := w.cl.ReadVia(id, u)
				return e
			})
			if err != nil {
				t.Fatal(err)
			}
			if h, _ := liveStats(); h > 0 {
				doc0, user0 = id, u
				break seeds
			}
		}
	}

	// A pass-through counting transform on the hot document: it leaves
	// the bytes alone (so the model needs no registration) but counts
	// every origin execution of the chain — the recompute cost the
	// coalescing hold is supposed to bound. The real-time sleep holds
	// each origin execution open long enough for the rest of the crowd
	// to genuinely overlap the leader's flight; virtual cost cannot do
	// that (the virtual clock advances under blocked readers, so a
	// virtual-cost chain completes before the scheduler runs anyone
	// else, serializing the burst into hits).
	var runs atomic.Int64
	count := &property.Transformer{
		Base: property.Base{PropName: "flash-count"},
		ReadTransform: func(b []byte) []byte {
			runs.Add(1)
			time.Sleep(5 * time.Millisecond)
			return b
		},
		Version: 1,
	}
	if err := w.space.Attach(doc0, "", docspace.Universal, count); err != nil {
		t.Fatal(err)
	}
	// Re-warm through the router (the attach invalidated the key
	// everywhere) and drain its invalidation pushes, so the burst below
	// starts from a settled, cached state.
	if err := w.doClusterRead(doc0, user0); err != nil {
		t.Fatal(err)
	}
	if err := w.doSettle(); err != nil {
		t.Fatal(err)
	}
	baseRuns := runs.Load()
	baseHits, baseCoalesced := liveStats()

	// The spike: a write lands on the hot document, and its
	// invalidation pushes are drained so the burst provably starts
	// against an invalidated key (undrained, part of the crowd can
	// legally hit the pre-write entry and dodge the flight).
	if err := w.doWrite(doc0); err != nil {
		t.Fatal(err)
	}
	if err := w.doSettle(); err != nil {
		t.Fatal(err)
	}
	// A flash crowd of concurrent readers hits the invalidated key
	// through the router, inside one guarded call so the virtual clock
	// advances under all of them together.
	const K = 48
	var (
		data [K][]byte
		via  [K]string
		errs [K]error
	)
	if err := w.guarded("flash-crowd", func() error {
		var wg sync.WaitGroup
		for i := 0; i < K; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				data[i], via[i], errs[i] = w.cl.ReadVia(doc0, user0)
			}(i)
		}
		wg.Wait()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	w.endOp()

	// Zero oracle violations: every served byte is held to the serving
	// node's causal staleness bound. (A read may legally lose its
	// real-time call deadline under -race; those count as unserved.)
	served := 0
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			if errors.Is(errs[i], remote.ErrDegraded) ||
				errors.Is(errs[i], server.ErrDisconnected) ||
				errors.Is(errs[i], server.ErrTimeout) {
				continue
			}
			t.Fatalf("flash read %d failed: %v", i, errs[i])
		}
		served++
		if cerr := w.checkRemoteAt(via[i], doc0, user0, data[i]); cerr != nil {
			t.Fatal(cerr)
		}
	}
	if served < K/2 {
		t.Fatalf("only %d/%d flash reads served on a clean wire", served, K)
	}

	runsDelta := runs.Load() - baseRuns
	hits, coalesced := liveStats()
	hitsDelta, coalescedDelta := hits-baseHits, coalesced-baseCoalesced
	if runsDelta < 1 {
		t.Fatal("the write invalidated nothing: zero transform runs during the spike")
	}
	// The hold: each served read is exactly one of node-hit, coalesced
	// join, or leader miss, and only leader misses can reach the origin
	// — so transform runs are bounded by the non-absorbed remainder.
	if absorbed := hitsDelta + coalescedDelta; runsDelta > int64(served)-absorbed {
		t.Fatalf("origin ran the chain %d times but only %d of %d reads escaped the hold (hits=%d coalesced=%d)",
			runsDelta, int64(served)-absorbed, served, hitsDelta, coalescedDelta)
	}
	if runsDelta > K/8 {
		t.Fatalf("flash crowd leaked %d origin transform runs for %d concurrent readers", runsDelta, K)
	}
	if coalescedDelta < 1 {
		t.Fatalf("no reads coalesced during a %d-wide burst on one key", K)
	}

	// The random schedule takes over, and the lost-write detector
	// closes the run: the spike must leave no latent staleness behind.
	for i := 0; i < w.cfg.Ops; i++ {
		if err := w.step(i); err != nil {
			t.Fatal(err)
		}
	}
	w.opIdx = w.cfg.Ops
	if err := w.finalCheck(); err != nil {
		t.Fatal(err)
	}
}
