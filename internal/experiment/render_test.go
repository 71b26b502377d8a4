package experiment

// Rendering invariants: every result type implements Result, and its
// Table and CSV renderings agree with TableData (same cells, different
// framing).

import (
	"strings"
	"testing"
	"time"

	"placeless/internal/swarm"
)

// sampleResults constructs one literal instance of every result type.
func sampleResults() []Result {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []Result{
		Table1Result{Rows: []Table1Row{{Source: "parcweb", Size: 1915, NoCache: ms(9), Miss: ms(10), Hit: ms(1)}}},
		NVResult{Rows: []NVRow{{Mode: VerifierOnly, MeanHit: ms(1), MeanRead: ms(2), HitRatio: 0.5, StaleReads: 3, Notifications: 4, VerifierPolls: 5}}},
		NVSweepResult{Rates: []NVSweepRow{{UpdateEvery: 10, Rows: []NVRow{{Mode: NotifierOnly, MeanRead: ms(1)}}}}},
		ReplacementResult{Rows: []ReplacementRow{{Policy: "gds", HitRatio: 0.5, ByteHitRatio: 0.25, MeanRead: ms(25), Evictions: 7}}},
		SharingResult{Rows: []SharingRow{{PersonalizedFrac: 0.25, Entries: 240, BytesLogical: 1000, BytesStored: 500, Saved: 0.5}}},
		CacheabilityResult{Rows: []CacheabilityRow{{Mix: "100/0/0", HitRatio: 0.9, MeanRead: ms(1), EventsForwarded: 2}}},
		ChainsResult{Rows: []ChainRow{{Chain: 3, NoCache: ms(30), Hit: ms(1), ReplacementCost: ms(30)}}},
		QoSResult{Rows: []QoSRow{{Config: "qos-on", QoSHitRatio: 0.99, QoSMeanRead: ms(80), QoSWorstRead: ms(80), MetTarget: true, OverallHitRatio: 0.3}}},
		CollectionResult{Rows: []CollectionRow{{Config: "prefetch-on", FirstRead: ms(100), MeanSubsequent: ms(1), TotalWalk: ms(110), Prefetches: 7}}},
		CostAblationResult{Rows: []CostAblationRow{{Config: "full", HitRatio: 0.5, MeanRead: ms(25)}}},
		PlacementResult{Rows: []PlacementRow{{Placement: "app+server", MeanRead: ms(8), P99Read: ms(190)}}},
		MemoResult{Rows: []MemoRow{{Users: 8, FullMiss: ms(9), MemoMiss: ms(3), Speedup: 3, UniversalRuns: 1, IntermediateHits: 39, SavedBytes: 638976}}},
		ClusterResult{Phases: []ClusterPhase{{Nodes: 8, Keys: 4096, Reads: 32768, Hits: 32768, MakespanMS: 1024, AggOpsPerSec: 32000, Imbalance: 1.25, Failovers: 0}},
			SpeedupByNodes: map[string]float64{"8": 6.4}},
		PrefixResult{Rows: []PrefixRow{{Users: 16, FullMiss: ms(12), MultiMiss: ms(3), SpeedupVsFull: 4, SharedRunsMulti: 1, UniversalRuns: 1, PrefixHits: 15}}},
		SwarmResult{Phases: []swarm.Frontier{{Phase: "cluster", Users: 120000, Ops: 150000, Reads: 142000, Hits: 71000, SegmentRunsSaved: 900, UniversalStageRuns: 3400, StaleReads: 0, MaxVersionLag: 0, P50Micros: 12, P99Micros: 340, ElapsedMS: 2100}}},
	}
}

func TestAllResultsRenderConsistently(t *testing.T) {
	for _, res := range sampleResults() {
		header, rows := res.TableData()
		if len(header) == 0 {
			t.Fatalf("%T: empty header", res)
		}
		for i, r := range rows {
			if len(r) != len(header) {
				t.Fatalf("%T: row %d has %d cells, header has %d", res, i, len(r), len(header))
			}
		}
		tbl := Table(res)
		csv := CSV(res)
		// Same line counts: header + separator + rows vs header + rows.
		tblLines := strings.Count(strings.TrimRight(tbl, "\n"), "\n") + 1
		csvLines := strings.Count(strings.TrimRight(csv, "\n"), "\n") + 1
		if tblLines != len(rows)+2 || csvLines != len(rows)+1 {
			t.Fatalf("%T: table %d lines, csv %d lines, rows %d", res, tblLines, csvLines, len(rows))
		}
		// Every cell appears in both renderings.
		for _, r := range rows {
			for _, cell := range r {
				if !strings.Contains(tbl, cell) {
					t.Fatalf("%T: table missing cell %q", res, cell)
				}
				// CSV may quote the cell; strip quotes for the check.
				if !strings.Contains(strings.ReplaceAll(csv, `"`, ""), strings.ReplaceAll(cell, `"`, "")) {
					t.Fatalf("%T: csv missing cell %q", res, cell)
				}
			}
		}
	}
}

func TestCSVQuoting(t *testing.T) {
	out := csvTable([]string{"a", "b"}, [][]string{{`x,y`, `he said "hi"`}})
	if !strings.Contains(out, `"x,y"`) || !strings.Contains(out, `"he said ""hi"""`) {
		t.Fatalf("csv quoting: %q", out)
	}
}

// TestPercentileNearestRank pins the exact nearest-rank helper behind
// E10's p99 and E6's worst read.
func TestPercentileNearestRank(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	if got := percentile(nil, 99); got != 0 {
		t.Fatalf("empty p99 = %v, want 0", got)
	}
	var samples []time.Duration
	for i := 100; i >= 1; i-- { // unordered input
		samples = append(samples, ms(i))
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, ms(50)}, {99, ms(99)}, {100, ms(100)}, {0.5, ms(1)}} {
		if got := percentile(samples, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]time.Duration{ms(5), ms(1), ms(9), ms(3), ms(7)}, 50); got != ms(5) {
		t.Errorf("p50 of five = %v, want 5ms", got)
	}
}
