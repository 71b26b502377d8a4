package sim

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

var (
	seedsFlag        = flag.Int("sim.seeds", 64, "number of seeded schedules TestSimSweep runs")
	opsFlag          = flag.Int("sim.ops", 350, "operations per seeded schedule")
	seedFlag         = flag.Int64("sim.seed", -1, "single seed for TestSimSeed (reproduce a failure)")
	clusterSeedsFlag = flag.Int("sim.cluster-seeds", 16, "number of forced multi-node schedules TestSimSweepCluster runs")
)

// TestSimSweep runs a batch of seeded whole-stack schedules. Each seed
// builds a different deployment (memoization, capacities, remote
// on/off, fault mix) and checks every read against the oracle.
// `make sim` raises -sim.seeds past 1000; short mode keeps the batch
// small enough for every `go test ./...`.
func TestSimSweep(t *testing.T) {
	seeds := *seedsFlag
	if testing.Short() && seeds > 32 {
		seeds = 32
	}
	for s := 1; s <= seeds; s++ {
		s := s
		t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
			t.Parallel()
			if err := RunSeed(Config{Seed: int64(s), Ops: *opsFlag}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSimSweepCluster forces the cluster dimension on: every seed runs
// a multi-node deployment (2–4 nodes behind the consistent-hash
// router) so node kills, joins, leaves, and cluster-routed reads are
// exercised on every schedule, not just the ~third of remote seeds
// that derive a cluster. `make cluster` raises -sim.cluster-seeds; CI
// runs 128 per push.
func TestSimSweepCluster(t *testing.T) {
	seeds := *clusterSeedsFlag
	if testing.Short() && seeds > 8 {
		seeds = 8
	}
	on := true
	for s := 1; s <= seeds; s++ {
		s := s
		t.Run(fmt.Sprintf("seed%d", s), func(t *testing.T) {
			t.Parallel()
			nodes := 2 + s%3
			if err := RunSeed(Config{Seed: int64(s), Ops: *opsFlag, Remote: &on, Cluster: &nodes}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSimSeed replays exactly one seed, as printed in a failure's
// repro line. Skipped unless -sim.seed is given.
func TestSimSeed(t *testing.T) {
	if *seedFlag < 0 {
		t.Skip("pass -sim.seed=<n> (after -args) to replay one schedule")
	}
	if err := RunSeed(Config{Seed: *seedFlag, Ops: *opsFlag}); err != nil {
		t.Fatal(err)
	}
}

// --- oracle sensitivity: the model must reject what it should ---

// TestOracleRejectsStaleLocal checks the interval oracle at the model
// level: bytes from a version that closed before the read began are
// illegal.
func TestOracleRejectsStaleLocal(t *testing.T) {
	m := newModel()
	t0 := time.Date(1999, 3, 28, 0, 0, 0, 0, time.UTC)
	m.addDoc("d", []string{"amy"}, []byte("v1"), t0)
	t1 := t0.Add(time.Second)
	m.applyWrite("d", []byte("v2"), t1, t1)

	// A read spanning the transition may see either version.
	if ok, _ := m.legalLocal("d", "amy", []byte("v1"), t0, t1); !ok {
		t.Error("v1 should be legal for a read overlapping its lifetime")
	}
	if ok, _ := m.legalLocal("d", "amy", []byte("v2"), t1, t1.Add(time.Second)); !ok {
		t.Error("v2 should be legal after the write")
	}
	// A read strictly after the transition must not see the old bytes.
	if ok, _ := m.legalLocal("d", "amy", []byte("v1"), t1.Add(time.Second), t1.Add(2*time.Second)); ok {
		t.Error("oracle accepted v1 after v2 replaced it — stale reads would go undetected")
	}
	// Bytes that never existed are never legal.
	if ok, _ := m.legalLocal("d", "amy", []byte("vX"), t0, t1); ok {
		t.Error("oracle accepted bytes no model state ever held")
	}
}

// TestOracleRemoteCausalBound checks that a remote reader can be stale
// but can never travel backwards: once it has observed version N,
// versions older than N are illegal.
func TestOracleRemoteCausalBound(t *testing.T) {
	m := newModel()
	t0 := time.Date(1999, 3, 28, 0, 0, 0, 0, time.UTC)
	m.addDoc("d", []string{"amy"}, []byte("v1"), t0)
	m.applyWrite("d", []byte("v2"), t0.Add(time.Second), t0.Add(time.Second))

	// Before any observation, an un-invalidated remote copy of v1 is
	// legally stale.
	if ok, _ := m.legalRemote("d", "amy", []byte("v1")); !ok {
		t.Fatal("stale-but-causal v1 should be legal before v2 is observed")
	}
	// Observing v2 tightens the bound...
	if ok, _ := m.legalRemote("d", "amy", []byte("v2")); !ok {
		t.Fatal("current v2 should be legal")
	}
	// ...after which v1 must be rejected.
	if ok, _ := m.legalRemote("d", "amy", []byte("v1")); ok {
		t.Error("oracle accepted v1 after v2 was observed — time travel would go undetected")
	}
}

// TestOracleClusterPerNodeBounds checks the per-node shape of the
// causal bound: each replica's cache advances independently, so one
// node observing a new version must not outlaw another node's legally
// older copy — but settling tightens every registered node at once.
func TestOracleClusterPerNodeBounds(t *testing.T) {
	m := newModel()
	m.addRemoteNode("n0")
	m.addRemoteNode("n1")
	t0 := time.Date(1999, 3, 28, 0, 0, 0, 0, time.UTC)
	m.addDoc("d", []string{"amy"}, []byte("v1"), t0)
	m.applyWrite("d", []byte("v2"), t0.Add(time.Second), t0.Add(time.Second))

	// n0 observes v2; its own bound tightens.
	if ok, _ := m.legalRemoteAt("n0", "d", "amy", []byte("v2")); !ok {
		t.Fatal("current v2 should be legal on n0")
	}
	if ok, _ := m.legalRemoteAt("n0", "d", "amy", []byte("v1")); ok {
		t.Error("n0 accepted v1 after observing v2 — per-node time travel undetected")
	}
	// n1 has observed nothing: serving the older v1 after a failover is
	// legal. A single global ratchet would falsely flag this read.
	if ok, _ := m.legalRemoteAt("n1", "d", "amy", []byte("v1")); !ok {
		t.Error("n1's un-invalidated v1 copy must stay legal after n0 observed v2")
	}
	// Settling proves every node caught up: v1 dies everywhere.
	m.settleKey("d", "amy")
	if ok, _ := m.legalRemoteAt("n1", "d", "amy", []byte("v1")); ok {
		t.Error("n1 accepted v1 after settle proved all nodes caught up")
	}
	if ok, _ := m.legalRemoteAt("n1", "d", "amy", []byte("v2")); !ok {
		t.Error("v2 must stay legal on n1 after settle")
	}
}

// TestOracleCatchesStaleEndToEnd drives a real world, then asks the
// oracle about deliberately stale bytes: a harness whose oracle cannot
// fail is worthless, so this pins the failure path end to end.
func TestOracleCatchesStaleEndToEnd(t *testing.T) {
	off := false
	w, err := NewWorld(Config{Seed: 42, Remote: &off})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	doc := w.model.order[0]
	user := w.model.docs[doc].users[0]
	before, err := w.cache.Read(doc, user)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.doWrite(doc); err != nil {
		t.Fatal(err)
	}
	w.clk.Advance(time.Second)
	t0 := w.clk.Now()
	w.clk.Advance(time.Millisecond)
	if ok, _ := w.model.legalLocal(doc, user, before, t0, w.clk.Now()); ok {
		t.Errorf("oracle accepted pre-write bytes %q for a read after the write", truncate(before))
	}
	if err := w.doLocalRead(doc, user); err != nil {
		t.Errorf("genuine read rejected: %v", err)
	}
}

// TestStallDetection pins the watchdog: an op that never returns must
// be reported as a deadlock, not hang the suite.
func TestStallDetection(t *testing.T) {
	off := false
	w, err := NewWorld(Config{Seed: 7, Remote: &off, StallBudget: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.guarded("block-forever", func() error { select {} })
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("watchdog did not flag a blocked op: %v", err)
	}
}

// TestTraceDumpNamesSeed checks the failure artifact carries the seed
// and a runnable repro line.
func TestTraceDumpNamesSeed(t *testing.T) {
	tmp := t.TempDir()
	wd, err0 := os.Getwd()
	if err0 != nil {
		t.Fatal(err0)
	}
	if err0 := os.Chdir(tmp); err0 != nil {
		t.Fatal(err0)
	}
	defer func() { _ = os.Chdir(wd) }()
	var tr trace
	tr.add(0, time.Date(1999, 3, 28, 0, 0, 0, 0, time.UTC), "write", "alpha/amy")
	err := dumpFailure(Config{Seed: 99, Ops: 10}, &tr, fmt.Errorf("boom"))
	if err == nil {
		t.Fatal("dumpFailure must return an error")
	}
	for _, want := range []string{"seed 99", "boom", "-sim.seed=99"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("failure error missing %q: %v", want, err)
		}
	}
}
