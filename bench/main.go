// Command bench is the live-daemon benchmark: it builds placelessd and
// plcached, launches one origin and one sidecar on loopback, drives a
// seeded internal/swarm op stream at the sidecar's HTTP data plane in
// a closed loop, checks every response, and reports end-to-end metrics
// and a per-layer ledger measured from outside the daemons. See
// README.md beside this file.
//
// One run, as the driver invokes it (from the repository root):
//
//	go run -C bench . --workload hot_small --seed 1 --seconds 15 --trace 0
//
// The whole suite with every metric by name, and the repeatability
// check:
//
//	go run -C bench .
//	go run -C bench . -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// buildDirName holds everything the benchmark leaves in a checkout:
// the daemon binaries, per-run scratch directories and trace files.
// The root .gitignore names it.
const buildDirName = ".bench_build"

func main() {
	name := flag.String("workload", "", "run one workload and print its result as the last line of standard output (default: run the suite)")
	seed := flag.Int64("seed", 1, "generator seed: the same seed gives the same op stream")
	seconds := flag.Int("seconds", 15, "length of the timed phase; it runs a fixed op count sized to last about this long on the 2-core sandbox")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics, in-process rungs and trace-<workload>.jsonl; 0 = end-to-end metrics")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and fail if an end-to-end metric differs by more than its bound")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	out := flag.String("out", "", "directory for trace files (default <root>/"+buildDirName+"/out)")
	spin := flag.Bool("idle-spin", false, "internal: run as a SCHED_IDLE spinner child (see spin.go)")
	flag.Parse()

	if *spin {
		idleSpin()
		return
	}
	if *manifest {
		printManifest()
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("bench: -seconds must be at least 1"))
	}
	cleanUpOnSignal()
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *traceFlag != 0, scale: 1, setups: 3, outDir: *out, isolate: true}
	if err := cfg.prepare(); err != nil {
		fatal(err)
	}
	if cfg.outDir == "" {
		cfg.outDir = filepath.Join(cfg.root, buildDirName, "out")
	}
	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(cfg))
	case *name == "":
		os.Exit(runSuite(cfg))
	}
	if cfg.w = findWorkload(*name); cfg.w == nil {
		fatal(fmt.Errorf("bench: unknown workload %q", *name))
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	report(res)
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	fmt.Println(resultLine(res, defs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// report prints every metric of a run by name with its unit, to
// standard error so that the result line stays last on standard
// output.
func report(res *result) {
	fmt.Fprintf(os.Stderr, "workload %s: stream sha256 %s, %d ops attempted, %d failed, timed phase %.1f s\n", res.workload, res.streamSHA, res.attempted, res.failed, res.timedS)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.metrics[d.name]; ok {
				fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", d.name, v, d.unit)
			}
		}
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "  FAILED %s\n", p)
	}
}

// resultLine renders the one JSON object the driver reads. A per-layer
// metric that does not apply to the workload reads 0.
func resultLine(res *result, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, make(map[string]value)}
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// runSuite runs every workload untraced and traced and prints every
// metric.
func runSuite(cfg runConfig) int {
	code := 0
	for i := range workloads {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.w, c.traced = &workloads[i], traced
			res, err := runWorkload(c)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				code = 1
				continue
			}
			report(res)
			if !res.correct() {
				code = 1
			}
		}
	}
	return code
}

// runSelfcheck runs the untraced suite twice on one seed. Every
// end-to-end metric must agree within its bound and every exact count
// to the digit.
func runSelfcheck(cfg runConfig) int {
	code := 0
	cfg.traced = false
	for i := range workloads {
		cfg.w = &workloads[i]
		var runs [2]*result
		for j := range runs {
			res, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			report(res)
			if !res.correct() {
				code = 1
			}
			runs[j] = res
		}
		for _, msg := range compareRuns(runs[0], runs[1]) {
			fmt.Fprintf(os.Stderr, "selfcheck %s: %s\n", cfg.w.name, msg)
			code = 1
		}
	}
	if code == 0 {
		fmt.Fprintln(os.Stderr, "selfcheck: every end-to-end metric repeated within its bound")
	}
	return code
}

// compareRuns lists the metrics on which two runs of one seed
// disagree: end-to-end ones by more than their bound, exact counts at
// all.
func compareRuns(a, b *result) []string {
	var out []string
	for _, d := range endToEnd {
		x, y := a.metrics[d.name], b.metrics[d.name]
		if diff := math.Abs(x-y) / math.Min(x, y); diff > d.bound {
			out = append(out, fmt.Sprintf("%s: %.4f vs %.4f %s differ by %.1f%%, bound %.0f%%", d.name, x, y, d.unit, 100*diff, 100*d.bound))
		}
	}
	for _, d := range perLayer {
		if x, y := a.metrics[d.name], b.metrics[d.name]; d.exact && x != y {
			out = append(out, fmt.Sprintf("%s: exact count %v vs %v", d.name, x, y))
		}
	}
	return out
}

func printManifest() {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: 15,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		fatal(err)
	}
}
