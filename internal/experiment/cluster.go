package experiment

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"placeless/internal/clock"
	"placeless/internal/cluster"
	"placeless/internal/core"
	"placeless/internal/docspace"
	"placeless/internal/property"
	"placeless/internal/remote"
	"placeless/internal/repo"
	"placeless/internal/server"
	"placeless/internal/simnet"
)

// ClusterConfig parameterizes the cluster-scaling experiment (E16):
// the same warm-hit read workload is routed through consistent-hash
// clusters of growing size, and per-node service time is accounted
// virtually — each hit charges HitCost to the node that served it, and
// a cell's makespan is its busiest node's total. That makes the
// experiment a deterministic measurement of ring balance (the thing
// that decides scaling) rather than of this machine's core count: on
// the 1-core CI box real threads cannot show an 8-way speedup, but a
// balanced ring provably would, and an unbalanced one provably
// wouldn't. The read path itself is real — every routed read goes
// through the production router and each node's remote cache.
type ClusterConfig struct {
	// Nodes lists the cluster sizes measured.
	Nodes []int
	// Docs and Users shape the keyset: Docs documents × Users users.
	Docs, Users int
	// Reads is the number of routed reads measured per cell.
	Reads int
	// Replicas is the owner-set size per key.
	Replicas int
	// VNodes is the virtual-node count per member.
	VNodes int
	// HitCost is the virtual service time charged per warm hit.
	HitCost time.Duration
	// Seed fixes document contents.
	Seed int64
}

// DefaultClusterConfig returns the configuration used by plbench.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Nodes:    []int{1, 2, 4, 8},
		Docs:     64,
		Users:    8,
		Reads:    20000,
		Replicas: 2,
		VNodes:   256,
		HitCost:  time.Millisecond,
		Seed:     1,
	}
}

// ClusterPhase is one cluster-size measurement.
type ClusterPhase struct {
	// Nodes is the cluster size; Keys the distinct (doc, user) pairs.
	Nodes, Keys int
	// Reads is the routed read count; Hits how many were warm hits on
	// the serving node's cache (the rest are fills during the first
	// round after ownership settled).
	Reads, Hits int64
	// MakespanMS is the busiest node's virtual service time, ms.
	MakespanMS float64
	// AggOpsPerSec is Reads over the makespan — the aggregate warm-hit
	// throughput the fleet sustains when every node runs in parallel.
	AggOpsPerSec float64
	// Imbalance is the busiest node's load over the mean (1.0 = even).
	Imbalance float64
	// Failovers counts reads served by a non-primary owner (0 on a
	// healthy fleet).
	Failovers int64
}

// ClusterResult is experiment E16's output.
type ClusterResult struct {
	Config ClusterConfig
	// Phases holds one row per cluster size.
	Phases []ClusterPhase
	// SpeedupByNodes maps "<nodes>" to this cell's aggregate throughput
	// over the single-node cell's.
	SpeedupByNodes map[string]float64
}

// TableData returns the result's header and rows, the shared source
// for the text-table and CSV renderings.
func (r ClusterResult) TableData() ([]string, [][]string) {
	header := []string{"nodes", "keys", "reads", "hits", "makespan_ms", "agg_ops/s", "imbalance", "failovers", "speedup"}
	var rows [][]string
	for _, p := range r.Phases {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%d", p.Keys),
			fmt.Sprintf("%d", p.Reads),
			fmt.Sprintf("%d", p.Hits),
			fmt.Sprintf("%.0f", p.MakespanMS),
			fmt.Sprintf("%.0f", p.AggOpsPerSec),
			fmt.Sprintf("%.2f", p.Imbalance),
			fmt.Sprintf("%d", p.Failovers),
			fmt.Sprintf("%.2fx", r.SpeedupByNodes[fmt.Sprintf("%d", p.Nodes)]),
		})
	}
	return header, rows
}

// runClusterPhase measures one cluster size: one origin, n nodes (each
// a listener + client + remote cache), the keyset warmed through the
// router, then cfg.Reads routed reads with per-node virtual service
// accounting.
func runClusterPhase(cfg ClusterConfig, n int) (ClusterPhase, error) {
	phase := ClusterPhase{Nodes: n, Keys: cfg.Docs * cfg.Users}

	clk := clock.Real{}
	net := simnet.NewNet(clk, rand.New(rand.NewSource(cfg.Seed)))
	backing := repo.NewMem("e16", clk, simnet.NewPath("free", cfg.Seed))
	space := docspace.New(clk, nil)
	origin := core.New(space, core.Options{Name: "e16-origin", Capacity: 256 << 20})
	defer origin.Close()
	srv := server.NewCached(space, backing, origin)
	defer srv.Close()

	cl := cluster.New(cluster.Options{Replicas: cfg.Replicas, VNodes: cfg.VNodes})
	caches := make(map[string]*remote.Cache, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("e16-n%d", i)
		ln := net.Listen(name)
		go func() { _ = srv.Serve(ln) }()
		client, err := server.Dial(name, server.WithDialer(net.Dial))
		if err != nil {
			return phase, err
		}
		defer client.Close()
		rc := remote.New(client, remote.Options{})
		defer rc.Close()
		caches[name] = rc
		if err := cl.AddNode(name, rc); err != nil {
			return phase, err
		}
	}

	// Build the keyset: Docs documents, each visible to Users users.
	type key struct{ doc, user string }
	keys := make([]key, 0, cfg.Docs*cfg.Users)
	for d := 0; d < cfg.Docs; d++ {
		doc := fmt.Sprintf("doc-%03d", d)
		backing.Store("/"+doc, Content(doc, 1024))
		users := make([]string, cfg.Users)
		for u := range users {
			users[u] = fmt.Sprintf("u%d", u)
			keys = append(keys, key{doc, users[u]})
		}
		if _, err := space.CreateDocument(doc, users[0], &property.RepoBitProvider{Repo: backing, Path: "/" + doc}); err != nil {
			return phase, err
		}
		for _, u := range users[1:] {
			if _, err := space.AddReference(doc, u); err != nil {
				return phase, err
			}
		}
	}

	// Warm pass: one routed read per key fills the primary owners.
	for _, k := range keys {
		if data, err := cl.Read(k.doc, k.user); err != nil {
			return phase, err
		} else if len(data) == 0 {
			return phase, errors.New("cluster: empty warm read")
		}
	}

	hitsBefore := int64(0)
	for _, rc := range caches {
		hitsBefore += rc.Stats().Hits
	}
	// Measured pass: round-robin over the keyset, charging each read's
	// virtual service time to the node that served it.
	busy := make(map[string]time.Duration, n)
	for i := 0; i < cfg.Reads; i++ {
		k := keys[i%len(keys)]
		_, via, err := cl.ReadVia(k.doc, k.user)
		if err != nil {
			return phase, err
		}
		busy[via] += cfg.HitCost
	}
	var makespan, total time.Duration
	for _, b := range busy {
		total += b
		if b > makespan {
			makespan = b
		}
	}
	hits := int64(0)
	for _, rc := range caches {
		hits += rc.Stats().Hits
	}
	phase.Reads = int64(cfg.Reads)
	phase.Hits = hits - hitsBefore
	phase.MakespanMS = float64(makespan) / float64(time.Millisecond)
	phase.AggOpsPerSec = float64(cfg.Reads) / makespan.Seconds()
	phase.Imbalance = float64(makespan) * float64(n) / float64(total)
	phase.Failovers = cl.Stats().Failovers
	return phase, nil
}

// RunCluster runs experiment E16: aggregate warm-hit throughput vs
// cluster size under consistent-hash placement.
func RunCluster(cfg ClusterConfig) (ClusterResult, error) {
	res := ClusterResult{Config: cfg, SpeedupByNodes: map[string]float64{}}
	var base float64
	for _, n := range cfg.Nodes {
		p, err := runClusterPhase(cfg, n)
		if err != nil {
			return res, err
		}
		res.Phases = append(res.Phases, p)
		if base == 0 {
			base = p.AggOpsPerSec
		}
		if base > 0 {
			res.SpeedupByNodes[fmt.Sprintf("%d", n)] = p.AggOpsPerSec / base
		}
	}
	return res, nil
}
