package swarm

import (
	"reflect"
	"testing"

	"placeless/internal/core"
	"placeless/internal/trace"
)

// sumNodeStats recomputes every cache-derived frontier cell from the
// raw per-node counters, independently of RunOps's own aggregation.
func sumNodeStats(nodes []core.Stats) (hits, inter, prefix, misses, coalesced, invals, uruns, pruns, installs, bytesSaved int64) {
	for _, st := range nodes {
		hits += st.Hits
		inter += st.IntermediateHits
		prefix += st.PrefixHits
		misses += st.Misses
		coalesced += st.CoalescedMisses
		invals += st.Invalidations
		uruns += st.UniversalStageRuns
		pruns += st.PrefixSegmentRuns
		installs += st.PrefixInstalls
		bytesSaved += st.BytesRecomputedSaved
	}
	return
}

// checkAgainstNodeStats asserts the frontier's cache cells are exactly
// the sums over its own NodeStats — the "frontier numbers match
// core.Stats" half of the accounting contract.
func checkAgainstNodeStats(t *testing.T, f Frontier) {
	t.Helper()
	hits, inter, prefix, misses, coalesced, invals, uruns, pruns, installs, bytesSaved := sumNodeStats(f.NodeStats)
	if f.Hits != hits || f.IntermediateHits != inter || f.PrefixHits != prefix ||
		f.Misses != misses || f.Coalesced != coalesced || f.Invalidations != invals ||
		f.UniversalStageRuns != uruns || f.PrefixSegmentRuns != pruns ||
		f.PrefixInstalls != installs || f.BytesRecomputedSaved != bytesSaved {
		t.Fatalf("frontier cells diverge from NodeStats sums:\n%+v", f)
	}
	if f.SegmentRunsSaved != f.IntermediateHits+f.PrefixHits {
		t.Fatalf("SegmentRunsSaved = %d, want IntermediateHits(%d) + PrefixHits(%d)",
			f.SegmentRunsSaved, f.IntermediateHits, f.PrefixHits)
	}
}

// TestRunOpsAccounting drives a hand-computable scripted workload
// through the single backend and pins every frontier cell against
// pencil-and-paper values. Script (one doc, two users, one worker):
//
//	attach d0/u0 p0        (chains now shareable)
//	attach d0/u1 p0
//	read   d0/u0           miss: universal stage runs, cuts install
//	read   d0/u0           hit
//	read   d0/u1           miss resumed from the shared prefix cut
//	write  d0              invalidates both cached entries
//	read   d0/u0           miss: universal stage runs again
func TestRunOpsAccounting(t *testing.T) {
	ops := []Op{
		{Kind: trace.OpAttach, Doc: 0, User: 0, Arg: 0},
		{Kind: trace.OpAttach, Doc: 0, User: 1, Arg: 0},
		{Kind: trace.OpRead, Doc: 0, User: 0},
		{Kind: trace.OpRead, Doc: 0, User: 0},
		{Kind: trace.OpRead, Doc: 0, User: 1},
		{Kind: trace.OpWrite, Doc: 0},
		{Kind: trace.OpRead, Doc: 0, User: 0},
	}
	f, err := RunOps(RunConfig{
		Gen:     Config{Users: 2, Docs: 1, Ops: len(ops), Seed: 9},
		Phase:   "accounting",
		Workers: 1,
	}, ops)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstNodeStats(t, f)

	if f.Ops != 7 || f.Reads != 4 || f.Writes != 1 || f.Attaches != 2 ||
		f.Detaches != 0 || f.Reorders != 0 || f.ChurnNoops != 0 {
		t.Fatalf("op mix wrong: %+v", f)
	}
	if f.DistinctPairs != 2 {
		t.Fatalf("DistinctPairs = %d, want 2", f.DistinctPairs)
	}
	if f.Hits != 1 {
		t.Fatalf("Hits = %d, want 1 (the repeated u0 read)", f.Hits)
	}
	if f.Misses != 3 {
		t.Fatalf("Misses = %d, want 3 (first u0, u1, post-write u0)", f.Misses)
	}
	if f.UniversalStageRuns != 2 {
		t.Fatalf("UniversalStageRuns = %d, want 2 (initial + post-write)", f.UniversalStageRuns)
	}
	// u1's miss resumed from the full shared cut [U0 U1 p0]: the
	// universal stage was served from memo (IntermediateHits) and the
	// probe found a prefix cut (PrefixHits) — one read, both cells.
	if f.IntermediateHits != 1 || f.PrefixHits != 1 {
		t.Fatalf("IntermediateHits = %d, PrefixHits = %d, want 1 and 1", f.IntermediateHits, f.PrefixHits)
	}
	if f.SegmentRunsSaved != 2 {
		t.Fatalf("SegmentRunsSaved = %d, want 2 (both cut servings of u1's read)", f.SegmentRunsSaved)
	}
	if f.Invalidations != 2 {
		t.Fatalf("Invalidations = %d, want 2 (the write dropped both entries)", f.Invalidations)
	}
	if f.StaleReads != 0 || f.MaxVersionLag != 0 {
		t.Fatalf("write-through run counted staleness: %+v", f)
	}
	if f.Coalesced != 0 {
		t.Fatalf("Coalesced = %d on a single worker, want 0", f.Coalesced)
	}
	if len(f.NodeStats) != 1 || f.Nodes != 1 || f.Workers != 1 {
		t.Fatalf("single backend shape wrong: %+v", f)
	}
	if f.RouterReads != 0 || f.RouterWrites != 0 || f.Failovers != 0 {
		t.Fatalf("router counters nonzero on single backend: %+v", f)
	}
}

// stripWallClock zeroes the fields outside the determinism contract.
func stripWallClock(f Frontier) Frontier {
	f.P50Micros, f.P99Micros, f.ElapsedMS = 0, 0, 0
	return f
}

// TestRunClusterDeterministicAndLive runs a generated workload against
// the cluster router twice with the same seed and requires identical
// frontier counts, with every headline cell live (nonzero): the
// acceptance bar that e18's cells mean something.
func TestRunClusterDeterministicAndLive(t *testing.T) {
	cfg := RunConfig{
		Gen: Config{
			Users: 5000, Docs: 40, Ops: 4000,
			Alpha: 0.9, UserAlpha: 0.6,
			WriteFrac: 0.04, ChurnFrac: 0.06,
			FlashDoc: 2, FlashBoost: 80, FlashStart: 0.5, FlashEnd: 0.6,
			Seed: 77,
		},
		Phase:   "cluster",
		Backend: Cluster,
		Nodes:   3,
		Workers: 4,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstNodeStats(t, a)
	if !reflect.DeepEqual(stripWallClock(a), stripWallClock(b)) {
		t.Fatalf("identical seeds produced different frontiers:\n%+v\n%+v", stripWallClock(a), stripWallClock(b))
	}
	if a.Hits == 0 || a.Misses == 0 || a.SegmentRunsSaved == 0 {
		t.Fatalf("dead frontier cells: hits=%d misses=%d saved=%d", a.Hits, a.Misses, a.SegmentRunsSaved)
	}
	if a.Writes == 0 || a.Attaches == 0 || a.Invalidations == 0 {
		t.Fatalf("dead churn cells: writes=%d attaches=%d invals=%d", a.Writes, a.Attaches, a.Invalidations)
	}
	if a.Nodes != 3 || len(a.NodeStats) != 3 {
		t.Fatalf("cluster shape wrong: %+v", a)
	}
	if a.RouterReads != a.Reads || a.RouterWrites != a.Writes {
		t.Fatalf("router saw %d/%d ops, harness counted %d/%d", a.RouterReads, a.RouterWrites, a.Reads, a.Writes)
	}
	if a.Failovers != 0 {
		t.Fatalf("Failovers = %d on healthy in-process nodes, want 0", a.Failovers)
	}
	// Every node should have taken part of the key space.
	for i, st := range a.NodeStats {
		if st.Hits+st.Misses == 0 {
			t.Fatalf("node %d served nothing — ring placement broken", i)
		}
	}
	if a.Hits+a.Misses != a.Reads {
		t.Fatalf("hits(%d) + misses(%d) != reads(%d)", a.Hits, a.Misses, a.Reads)
	}
}

// TestRunSingleMatchesOpMix checks the generated-stream path end to
// end on the single backend: executed op tallies must exactly match
// the stream's kind mix (churn splits into applied + no-op).
func TestRunSingleMatchesOpMix(t *testing.T) {
	cfg := RunConfig{
		Gen: Config{
			Users: 500, Docs: 20, Ops: 2000,
			Alpha: 0.8, WriteFrac: 0.05, ChurnFrac: 0.1,
			Seed: 5,
		},
		Phase:   "single",
		Workers: 3,
	}
	ops := Ops(cfg.Gen)
	var reads, writes, churn int64
	for _, op := range ops {
		switch op.Kind {
		case trace.OpWrite:
			writes++
		case trace.OpAttach, trace.OpDetach, trace.OpReorder:
			churn++
		default:
			reads++
		}
	}
	f, err := RunOps(cfg, ops)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstNodeStats(t, f)
	if f.Reads != reads || f.Writes != writes {
		t.Fatalf("executed %d/%d reads/writes, stream had %d/%d", f.Reads, f.Writes, reads, writes)
	}
	if got := f.Attaches + f.Detaches + f.Reorders + f.ChurnNoops; got != churn {
		t.Fatalf("churn ops executed+noop = %d, stream had %d", got, churn)
	}
	if f.Hits+f.Misses != f.Reads {
		t.Fatalf("hits(%d) + misses(%d) != reads(%d)", f.Hits, f.Misses, f.Reads)
	}
}
