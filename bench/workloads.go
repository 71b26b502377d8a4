package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"

	"placeless/internal/swarm"
	"placeless/internal/trace"
)

// ownerName creates and writes every document.
const ownerName = "swarm-owner"

// slices is the number of equal-op-count slices a timed phase is cut
// into; every reported timing or rate is the median over them.
const slices = 7

// workload fixes one traffic mix and the deployment it runs against.
// The sizes are constants of the benchmark: changing one starts a new
// baseline.
type workload struct {
	name, why string
	// cluster selects plcached -cluster O,O,O -replicas 2; otherwise
	// plcached -server O.
	cluster bool
	// gen shapes the swarm stream; Ops and Seed are filled per run.
	gen swarm.Config
	// opsPerSecond sizes the timed phase: it runs opsPerSecond ×
	// --seconds ops, calibrated on the 2-core sandbox so that the phase
	// lasts about --seconds. The count is fixed so every counter
	// repeats per seed.
	opsPerSecond int
	docBytes     int
	universal    []string // property specs, in chain order
	sidecarCap   int64    // plcached -capacity, 0 = unlimited
	originCache  int64    // placelessd -cache
	// restart replaces the op stream by kill/restart cycles that read
	// every key once.
	restart bool
}

// The universal chain of the two workloads that recompute: translate-fr
// keeps 2 ms of execution time as the paper's expensive property.
var costlyChain = []string{"spell-correct", "translate-fr:2"}
var freeChain = []string{"spell-correct", "translate-fr"}

var churnGen = swarm.Config{Users: 16, Docs: 192, Alpha: 0.9, UserAlpha: 0.6, WriteFrac: 0.05, ChurnFrac: 0.03}

var workloads = []workload{
	{
		name:    "hot_small",
		why:     "8 KiB Zipf reads all warm in the sidecar: HTTP handler, cluster pick and remote hit carry it; wire, core, docspace and store idle",
		cluster: true,
		gen:     swarm.Config{Users: 24, Docs: 128, Alpha: 0.9, UserAlpha: 0.6},
		// ≈3072 pairs × 8 KiB = 24 MiB, all resident in the sidecar.
		opsPerSecond: 17000,
		docBytes:     8 << 10,
		universal:    freeChain,
		originCache:  256 << 20,
	},
	{
		name: "wire_large",
		why:  "64 KiB uniform reads over 16x the sidecar capacity, all warm in the origin: v2 wire framing and the core hit path carry it",
		// 256 pairs × 64 KiB = 16 MiB against a 1 MiB sidecar.
		gen:          swarm.Config{Users: 4, Docs: 64, Alpha: 1e-9},
		opsPerSecond: 2400,
		docBytes:     64 << 10,
		universal:    freeChain,
		sidecarCap:   1 << 20,
		originCache:  256 << 20,
	},
	{
		name:         "churn_mix",
		why:          "Zipf reads with 5% writes and 3% personal-chain churn over an origin cache a third of the working set: miss path, notifier fan-out, eviction, store",
		cluster:      true,
		gen:          churnGen,
		opsPerSecond: 1950,
		docBytes:     4 << 10,
		universal:    costlyChain,
		// ≈3000 pairs × 4 KiB ≈ 12 MiB of transformed views.
		originCache: 4 << 20,
	},
	{
		name: "restart_recover",
		why:  "kill -9 the origin, restart it on the same directories and read every key once, twelve times: store scan-on-open, promotion from disk, sidecar reconnect and epoch flush carry it",
		gen:  churnGen,
		// The stream only names the population; each cycle reads its
		// distinct pairs once.
		opsPerSecond: 1950,
		docBytes:     4 << 10,
		universal:    costlyChain,
		originCache:  4 << 20,
		restart:      true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// stream generates the workload's op stream for one run. scale shrinks
// it for the smoke test.
func (w *workload) stream(seed int64, seconds int, scale float64) []swarm.Op {
	cfg := w.gen
	cfg.Seed = seed
	cfg.Ops = int(math.Max(float64(slices), float64(w.opsPerSecond*seconds)*scale))
	return swarm.Ops(cfg)
}

func streamSHA(ops []swarm.Op) string {
	sum := sha256.Sum256(swarm.Encode(ops))
	return hex.EncodeToString(sum[:])
}

// distinctPairs lists the (doc, user) keys ops touch, in order of first
// appearance.
func distinctPairs(ops []swarm.Op) []pairKey {
	seen := make(map[pairKey]bool)
	var out []pairKey
	for _, op := range ops {
		k := pairKey{op.Doc, op.User}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func isChurn(k trace.OpKind) bool {
	return k == trace.OpAttach || k == trace.OpDetach || k == trace.OpReorder
}
