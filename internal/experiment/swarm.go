package experiment

import (
	"fmt"

	"placeless/internal/swarm"
)

// SwarmConfig parameterizes the trace-driven swarm experiment (E18):
// one generated op stream shape — Zipf document popularity, diurnal
// intensity, personal-chain churn, a flash-crowd spike — executed
// through two deployments whose rows form a latency/staleness/
// recompute-cost frontier: a single cache and the consistent-hash
// cluster router. Both write through, so the staleness column is the
// oracle that reads 0.
type SwarmConfig struct {
	// Users is the virtualized user population (identities are
	// multiplexed over Workers, so this scales to millions).
	Users int
	// Docs and Ops shape the stream volume.
	Docs, Ops int
	// Alpha and UserAlpha are the document and user Zipf exponents.
	Alpha, UserAlpha float64
	// WriteFrac and ChurnFrac are the write and personal-chain
	// mutation fractions of the stream.
	WriteFrac, ChurnFrac float64
	// FlashDoc's popularity spikes FlashBoost-fold between
	// FlashStart·day and FlashEnd·day.
	FlashDoc             int
	FlashBoost           float64
	FlashStart, FlashEnd float64
	// Workers bounds the concurrent pool; Nodes and Replicas shape the
	// cluster phase's ring.
	Workers, Nodes, Replicas int
	// Seed fixes the streams.
	Seed int64
}

// DefaultSwarmConfig returns the configuration used by plbench: a
// 120k-user population over ~1.2k documents, sized to finish a
// cluster-routed run inside CI's budget.
func DefaultSwarmConfig() SwarmConfig {
	return SwarmConfig{
		Users: 120000, Docs: 1200, Ops: 150000,
		Alpha: 0.9, UserAlpha: 1.2,
		WriteFrac: 0.02, ChurnFrac: 0.03,
		FlashDoc: 2, FlashBoost: 100, FlashStart: 0.4, FlashEnd: 0.45,
		Workers: 8, Nodes: 3, Replicas: 2,
		Seed: 1,
	}
}

// SwarmResult is experiment E18's output: one frontier row per phase.
type SwarmResult struct {
	Config SwarmConfig
	Phases []swarm.Frontier
}

// TableData returns the result's header and rows, the shared source
// for the text-table and CSV renderings.
func (r SwarmResult) TableData() ([]string, [][]string) {
	header := []string{"phase", "users", "ops", "hit%", "memo_saved", "universal_runs", "stale", "max_lag", "p50_us", "p99_us", "elapsed_ms"}
	var rows [][]string
	for _, p := range r.Phases {
		rows = append(rows, []string{
			p.Phase,
			fmt.Sprintf("%d", p.Users),
			fmt.Sprintf("%d", p.Ops),
			fmt.Sprintf("%.1f", p.HitRate()*100),
			fmt.Sprintf("%d", p.SegmentRunsSaved),
			fmt.Sprintf("%d", p.UniversalStageRuns),
			fmt.Sprintf("%d", p.StaleReads),
			fmt.Sprintf("%d", p.MaxVersionLag),
			fmt.Sprintf("%.0f", p.P50Micros),
			fmt.Sprintf("%.0f", p.P99Micros),
			fmt.Sprintf("%.0f", p.ElapsedMS),
		})
	}
	return header, rows
}

// phases expands the configuration into the two frontier rows.
func (cfg SwarmConfig) phases() []swarm.RunConfig {
	gen := swarm.Config{
		Users: cfg.Users, Docs: cfg.Docs, Ops: cfg.Ops,
		Alpha: cfg.Alpha, UserAlpha: cfg.UserAlpha,
		WriteFrac: cfg.WriteFrac, ChurnFrac: cfg.ChurnFrac,
		FlashDoc: cfg.FlashDoc, FlashBoost: cfg.FlashBoost,
		FlashStart: cfg.FlashStart, FlashEnd: cfg.FlashEnd,
		Seed: cfg.Seed,
	}
	return []swarm.RunConfig{
		{Gen: gen, Phase: "single/wt", Backend: swarm.Single, Workers: cfg.Workers},
		{Gen: gen, Phase: "cluster/wt", Backend: swarm.Cluster,
			Nodes: cfg.Nodes, Replicas: cfg.Replicas, Workers: cfg.Workers},
	}
}

// RunSwarm runs experiment E18: the trace-driven swarm over the two
// deployment phases.
func RunSwarm(cfg SwarmConfig) (SwarmResult, error) {
	res := SwarmResult{Config: cfg}
	for _, rc := range cfg.phases() {
		f, err := swarm.Run(rc)
		if err != nil {
			return res, err
		}
		res.Phases = append(res.Phases, f)
	}
	return res, nil
}
