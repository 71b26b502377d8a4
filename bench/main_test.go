package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"placeless/internal/swarm"
)

// The checker must flag a body for the wrong user, a version that went
// back, and a body whose bytes changed under the same version.
func TestCheckerFlagsBadBodies(t *testing.T) {
	doc, alice, bob := swarm.DocID(3), swarm.UserName(1), swarm.UserName(2)
	view := func(version int64, user string) []byte {
		body := stampContent(doc, version, 256)
		return append(body, "\n-- retrieved for "+user+" --\n"...)
	}
	c := newChecker()
	c.written[3] = 2
	for _, ok := range [][]byte{view(1, alice), view(1, alice), view(2, alice), stampContent(doc, 2, 256)} {
		if err := c.check(3, 1, doc, alice, ok); err != nil {
			t.Fatalf("legal read rejected: %v", err)
		}
	}
	if c.stale != 2 {
		t.Errorf("stale = %d, want the two reads of version 1 behind acked version 2", c.stale)
	}
	corrupted := view(2, alice)
	corrupted[100] ^= 0x20
	bad := map[string][]byte{
		"wrong user":        view(2, bob),
		"regressed version": view(1, alice),
		"corrupted body":    corrupted,
		"unwritten version": view(3, alice),
		"other document":    append(stampContent(swarm.DocID(4), 2, 256), "\n-- retrieved for "+alice+" --\n"...),
		"no stamp":          []byte("404 page not found"),
	}
	for name, body := range bad {
		if err := c.check(3, 1, doc, alice, body); err == nil {
			t.Errorf("%s: not flagged", name)
		}
	}
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

type manifest struct {
	Command   []string
	Paths     []string
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// BENCHMARK.json is what the driver reads; the tables in this package
// are what a run emits. They must name the same workloads and metrics.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, the bench runs %v", names, want)
	}
	check := func(kind string, got []manifestMetric, defs []metricDef) {
		var want []manifestMetric
		for _, d := range defs {
			want = append(want, manifestMetric{d.name, d.unit, d.better, d.bound})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BENCHMARK.json and the bench's table differ:\n%v\n%v", kind, got, want)
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

// emitted returns the metric names in a result line.
func emitted(t *testing.T, res *result, defs []metricDef) []string {
	t.Helper()
	var line struct {
		Metrics map[string]json.RawMessage
	}
	if err := json.Unmarshal([]byte(resultLine(res, defs)), &line); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range line.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sortedNames(ms []manifestMetric) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload against real daemons at 1/50 scale:
// the traced and untraced result lines carry exactly BENCHMARK.json's
// names, every name is one the run computed, and two runs of one seed
// agree on every exact count.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches daemons")
	}
	m := readManifest(t)
	known := make(map[string]bool)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		known[d.name] = true
	}
	base := runConfig{seed: 7, seconds: 10, scale: 0.02, setups: 1}
	if err := base.prepare(); err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := base
			cfg.w, cfg.outDir = w, t.TempDir()
			run := func(traced bool) *result {
				cfg.traced = traced
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("run incorrect: %d of %d ops failed, %v", res.failed, res.attempted, res.problems)
				}
				return res
			}
			a, b, traced := run(false), run(false), run(true)
			if got, want := emitted(t, a, endToEnd), sortedNames(m.EndToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("untraced run emitted %v, BENCHMARK.json lists %v", got, want)
			}
			if got, want := emitted(t, traced, perLayer), sortedNames(m.PerLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced run emitted %v, BENCHMARK.json lists %v", got, want)
			}
			for name := range traced.metrics {
				if !known[name] {
					t.Errorf("run computed %q, which no table lists", name)
				}
			}
			for name := range known {
				if _, ok := traced.metrics[name]; !ok {
					t.Errorf("traced run did not compute %q", name)
				}
			}
			if a.streamSHA != b.streamSHA || a.attempted != b.attempted {
				t.Errorf("same seed, different streams: %s/%d vs %s/%d", a.streamSHA, a.attempted, b.streamSHA, b.attempted)
			}
			for _, d := range perLayer {
				if d.exact && a.metrics[d.name] != b.metrics[d.name] {
					t.Errorf("%s: %v vs %v on one seed", d.name, a.metrics[d.name], b.metrics[d.name])
				}
			}
			if _, err := os.Stat(cfg.outDir + "/trace-" + w.name + ".jsonl"); err != nil {
				t.Errorf("traced run left no trace file: %v", err)
			}
		})
	}
}
