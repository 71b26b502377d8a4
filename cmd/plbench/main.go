// Command plbench regenerates the paper's evaluation and this
// repository's extension experiments (see DESIGN.md §4 for the
// experiment index).
//
// Usage:
//
//	plbench [-seed N] [-iters N] [-format table|csv] <experiment>
//
// Experiments:
//
//	table1             Table 1: access times, no-cache / miss / hit (T1)
//	notifier-verifier  notifier vs verifier consistency tradeoff (E1)
//	nv-sweep           E1 across update rates (figure-style series)
//	replacement        replacement policy ablation, GDS vs baselines (E2)
//	sharing            content-signature storage sharing (E3)
//	cacheability       cacheability indicator mix (E4)
//	chains             property-chain length vs latency (E5)
//	qos                QoS-driven replacement-cost inflation (E6)
//	collection         related-document (collection) prefetching (E8)
//	cost-ablation      property-cost signal ablation for GDS (E9)
//	placement          app-side vs server-side cache placement (E10)
//	memo               universal-stage memoization fan-out (E12)
//	cluster            consistent-hash cluster scaling (E16)
//	prefix             longest-shared-prefix chain caching (E17)
//	swarm              trace-driven swarm latency/staleness/cost frontier (E18)
//	all                run everything
//
// Alternatively, -experiment <index> (t1, e1, e1b, e2 … e6, e8 … e10,
// e12, e16, e17, e18) runs one experiment by its DESIGN.md index and
// additionally writes its result as BENCH_<index>.json
// (BENCH_cluster.json for e16, BENCH_prefix.json for e17,
// BENCH_swarm.json for e18) in the working directory, for machine
// consumers (CI trend tracking). E11 and E13–E15 are retired: DESIGN.md
// §4 names the test or benchmark that carries each one's claim.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"placeless/internal/experiment"
)

// experiments is the one table behind the positional names, the
// -experiment indexes, the usage strings and `all` (which runs it top
// to bottom). artifact is the BENCH_<artifact>.json a run by index
// writes: the index itself unless CI reads the file under a subsystem
// name.
var experiments = []struct {
	name, index, artifact string
	run                   func(seed int64, iters int) (title string, res experiment.Result, err error)
}{
	{"table1", "t1", "t1", func(seed int64, iters int) (string, experiment.Result, error) {
		res, err := experiment.RunTable1(seed, iters)
		return "T1 — Table 1: document content access times (application-level cache)", res, err
	}},
	{"notifier-verifier", "e1", "e1", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultNVConfig()
		cfg.Seed = seed
		res, err := experiment.RunNotifierVerifier(cfg)
		return fmt.Sprintf("E1 — notifier vs verifier (docs=%d reads=%d update every %d, %.0f%% out-of-band)",
			cfg.Docs, cfg.Reads, cfg.UpdateEvery, cfg.OutsideFrac*100), res, err
	}},
	{"nv-sweep", "e1b", "e1b", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultNVConfig()
		cfg.Seed = seed
		res, err := experiment.RunNotifierVerifierSweep(cfg, experiment.DefaultNVSweepRates())
		return "E1b — notifier vs verifier across update rates (updates per read)", res, err
	}},
	{"replacement", "e2", "e2", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultReplacementConfig()
		cfg.Seed = seed
		res, err := experiment.RunReplacement(cfg)
		return fmt.Sprintf("E2 — replacement policies (docs=%d reads=%d zipf=%.2f capacity=%.0f%%)",
			cfg.Docs, cfg.Reads, cfg.Alpha, cfg.CapacityFrac*100), res, err
	}},
	{"sharing", "e3", "e3", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultSharingConfig()
		cfg.Seed = seed
		res, err := experiment.RunSharing(cfg)
		return fmt.Sprintf("E3 — signature sharing (docs=%d users=%d)", cfg.Docs, cfg.Users), res, err
	}},
	{"cacheability", "e4", "e4", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultCacheabilityConfig()
		cfg.Seed = seed
		res, err := experiment.RunCacheability(cfg)
		return fmt.Sprintf("E4 — cacheability mix (docs=%d reads=%d)", cfg.Docs, cfg.Reads), res, err
	}},
	{"chains", "e5", "e5", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultChainsConfig()
		cfg.Seed = seed
		res, err := experiment.RunChains(cfg)
		return fmt.Sprintf("E5 — property chains (cost/property=%v doc=%dB)", cfg.PropCost, cfg.DocSize), res, err
	}},
	{"qos", "e6", "e6", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultQoSConfig()
		cfg.Seed = seed
		res, err := experiment.RunQoS(cfg)
		return fmt.Sprintf("E6 — QoS cost inflation (background docs=%d reads=%d factor=%.0fx)",
			cfg.BackgroundDocs, cfg.Reads, cfg.CostFactor), res, err
	}},
	{"collection", "e8", "e8", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultCollectionConfig()
		cfg.Seed = seed
		res, err := experiment.RunCollection(cfg)
		return fmt.Sprintf("E8 — collection prefetching (members=%d size=%dB, WAN-hosted)", cfg.Members, cfg.DocSize), res, err
	}},
	{"cost-ablation", "e9", "e9", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultReplacementConfig()
		cfg.Seed = seed
		res, err := experiment.RunCostAblation(cfg)
		return "E9 — replacement-cost signal ablation (GDS, same workload as E2)", res, err
	}},
	{"placement", "e10", "e10", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultPlacementConfig()
		cfg.Seed = seed
		res, err := experiment.RunPlacement(cfg)
		return fmt.Sprintf("E10 — cache placement (docs=%d reads=%d link=%v app-capacity=%.0f%%)",
			cfg.Docs, cfg.Reads, cfg.LinkCost, cfg.AppCapacityFrac*100), res, err
	}},
	{"memo", "e12", "e12", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultMemoConfig()
		cfg.Seed = seed
		res, err := experiment.RunMemo(cfg)
		return fmt.Sprintf("E12 — universal-stage memoization (doc=%dB chain=3×%v personal=%v rounds=%d)",
			cfg.DocSize, cfg.PropCost, cfg.PersonalCost, cfg.Rounds), res, err
	}},
	{"cluster", "e16", "cluster", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultClusterConfig()
		cfg.Seed = seed
		res, err := experiment.RunCluster(cfg)
		return fmt.Sprintf("E16 — consistent-hash cluster scaling (nodes=%v keys=%d reads=%d replicas=%d vnodes=%d, virtual per-node service time: compare the speedup column)",
			cfg.Nodes, cfg.Docs*cfg.Users, cfg.Reads, cfg.Replicas, cfg.VNodes), res, err
	}},
	{"prefix", "e17", "prefix", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultPrefixConfig()
		cfg.Seed = seed
		res, err := experiment.RunPrefix(cfg)
		return fmt.Sprintf("E17 — longest-shared-prefix chain caching (doc=%dB universal=2×%v shared=%v personal=%v, cold miss storm)",
			cfg.DocSize, cfg.UniversalCost, cfg.SharedCost, cfg.PersonalCost), res, err
	}},
	{"swarm", "e18", "swarm", func(seed int64, _ int) (string, experiment.Result, error) {
		cfg := experiment.DefaultSwarmConfig()
		cfg.Seed = seed
		res, err := experiment.RunSwarm(cfg)
		return fmt.Sprintf("E18 — trace-driven swarm frontier (users=%d docs=%d ops=%d zipf=%.2f flash=%.0fx nodes=%d workers=%d, real clock: latency columns are machine-dependent, counts are seed-deterministic)",
			cfg.Users, cfg.Docs, cfg.Ops, cfg.Alpha, cfg.FlashBoost, cfg.Nodes, cfg.Workers), res, err
	}},
}

// usage renders the two command forms from the table.
func usage() string {
	var names, indexes []string
	for _, e := range experiments {
		names = append(names, e.name)
		indexes = append(indexes, e.index)
	}
	return fmt.Sprintf("usage: plbench [-seed N] [-iters N] [-format table|csv] <%s|all>\n       plbench [-seed N] [-iters N] [-format table|csv] -experiment <%s>",
		strings.Join(names, "|"), strings.Join(indexes, "|"))
}

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	iters := flag.Int("iters", 5, "iterations per Table 1 cell")
	format := flag.String("format", "table", "output format: table or csv")
	expIndex := flag.String("experiment", "", "run one experiment by index (e.g. e12) and write BENCH_<index>.json")
	flag.Parse()
	which, wantArgs := *expIndex, 0
	if which == "" {
		which, wantArgs = flag.Arg(0), 1
	}
	if flag.NArg() != wantArgs || (*format != "table" && *format != "csv") {
		fmt.Fprintln(os.Stderr, usage())
		os.Exit(2)
	}
	if err := run(os.Stdout, which, *seed, *iters, *format, *expIndex != ""); err != nil {
		fmt.Fprintf(os.Stderr, "plbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes the experiment(s) which selects — a positional name or
// "all", or with byIndex a DESIGN.md index — writing each title and
// result to w in the chosen format. A run by index also writes the raw
// result struct as its BENCH_<artifact>.json.
func run(w io.Writer, which string, seed int64, iters int, format string, byIndex bool) error {
	ran := false
	for _, e := range experiments {
		selected := which == e.name || which == "all"
		if byIndex {
			selected = which == e.index
		}
		if !selected {
			continue
		}
		ran = true
		title, res, err := e.run(seed, iters)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, title)
		if format == "csv" {
			fmt.Fprintln(w, experiment.CSV(res))
		} else {
			fmt.Fprintln(w, experiment.Table(res))
		}
		if !byIndex {
			continue
		}
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		out := "BENCH_" + e.artifact + ".json"
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", out)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q\n%s", which, usage())
	}
	return nil
}
