package experiment

import (
	"reflect"
	"strings"
	"testing"
)

// testSwarmConfig shrinks E18 to CI-test scale while keeping every
// phase's cells live.
func testSwarmConfig() SwarmConfig {
	cfg := DefaultSwarmConfig()
	cfg.Users = 2000
	cfg.Docs = 60
	cfg.Ops = 5000
	return cfg
}

// TestSwarmPhasesLive runs the scaled-down E18 and checks each phase
// reports a live frontier: both rows have hits, memo savings and
// misses, and neither reads a stale version.
func TestSwarmPhasesLive(t *testing.T) {
	res, err := RunSwarm(testSwarmConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(res.Phases))
	}
	for _, p := range res.Phases {
		if p.Hits == 0 || p.Misses == 0 || p.SegmentRunsSaved == 0 {
			t.Fatalf("phase %s has dead cells: %+v", p.Phase, p)
		}
		if p.Hits+p.Misses != p.Reads {
			t.Fatalf("phase %s: hits+misses != reads: %+v", p.Phase, p)
		}
	}
	single, clustered := res.Phases[0], res.Phases[1]
	if single.Phase != "single/wt" || clustered.Phase != "cluster/wt" {
		t.Fatalf("phase order wrong: %s %s", single.Phase, clustered.Phase)
	}
	if clustered.Nodes != 3 || clustered.RouterReads != clustered.Reads {
		t.Fatalf("cluster phase not routed: %+v", clustered)
	}
	if single.StaleReads != 0 || clustered.StaleReads != 0 {
		t.Fatal("write-through phases must be staleness-free")
	}
}

// TestSwarmDeterministicCounts pins that two runs of the same seed
// produce identical frontier counts in every phase (latency and
// elapsed columns excluded — they are wall-clock).
func TestSwarmDeterministicCounts(t *testing.T) {
	cfg := testSwarmConfig()
	a, err := RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Phases {
		pa, pb := a.Phases[i], b.Phases[i]
		pa.P50Micros, pa.P99Micros, pa.ElapsedMS = 0, 0, 0
		pb.P50Micros, pb.P99Micros, pb.ElapsedMS = 0, 0, 0
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("phase %s counts differ across identical seeds:\n%+v\n%+v", pa.Phase, pa, pb)
		}
	}
}

// TestSwarmRenders checks the table and CSV renderings carry the
// frontier columns.
func TestSwarmRenders(t *testing.T) {
	cfg := testSwarmConfig()
	cfg.Ops = 800
	res, err := RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{Table(res), CSV(res)} {
		for _, col := range []string{"phase", "hit%", "memo_saved", "stale", "p99_us"} {
			if !strings.Contains(out, col) {
				t.Fatalf("rendering missing column %q:\n%s", col, out)
			}
		}
		for _, phase := range []string{"single/wt", "cluster/wt"} {
			if !strings.Contains(out, phase) {
				t.Fatalf("rendering missing phase %q:\n%s", phase, out)
			}
		}
	}
}
