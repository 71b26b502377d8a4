package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// sink returns a throwaway file for run output.
func sink(t *testing.T) *os.File {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "plbench")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestRunUnknownExperiment(t *testing.T) {
	// e11 and e13–e15 are retired indexes: their claims moved to package
	// tests and benchmarks (DESIGN.md §4), and plbench no longer runs them.
	for _, which := range []string{"nonsense", "e11", "e13", "e14", "e15"} {
		for _, byIndex := range []bool{false, true} {
			err := run(sink(t), which, 1, 1, "table", byIndex)
			if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
				t.Fatalf("%s byIndex=%v: err = %v", which, byIndex, err)
			}
		}
	}
	// The two namespaces do not leak into each other.
	if err := run(sink(t), "table1", 1, 1, "table", true); err == nil {
		t.Fatal("a positional name was accepted as an index")
	}
}

// heavy names the experiments that take over a second; they run in
// TestRunHeavyExperiments, outside -short. The ones marked false take
// tens of seconds (a 30 s scaling sweep, 150k swarm ops): CI runs
// those through its plbench steps, no unit test does.
var heavy = map[string]bool{
	"notifier-verifier": true, "replacement": true, "qos": true,
	"cluster": false, "swarm": false,
}

func TestRunEachExperiment(t *testing.T) {
	// Smoke-run every light experiment in the table with tiny iteration
	// counts; the shape assertions live in internal/experiment's tests.
	names, indexes, artifacts := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, e := range experiments {
		if names[e.name] || indexes[e.index] || artifacts[e.artifact] || e.name == "all" {
			t.Fatalf("table entry %+v reuses a name, index or artifact", e)
		}
		names[e.name], indexes[e.index], artifacts[e.artifact] = true, true, true
		if !strings.Contains(usage(), e.name+"|") || !strings.Contains(usage(), e.index) {
			t.Fatalf("usage omits %s/%s:\n%s", e.name, e.index, usage())
		}
		if _, slow := heavy[e.name]; slow {
			continue
		}
		if err := run(sink(t), e.name, 1, 1, "table", false); err != nil {
			t.Fatalf("run(%s): %v", e.name, err)
		}
	}
	for name := range heavy {
		if !names[name] {
			t.Fatalf("heavy lists %q, which is not in the table", name)
		}
	}
}

// TestRunByIndexWritesArtifact pins the -experiment contract: same
// table as the positional run, plus BENCH_<artifact>.json in the
// working directory.
func TestRunByIndexWritesArtifact(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	for index, artifact := range map[string]string{"t1": "BENCH_t1.json", "e12": "BENCH_e12.json", "e17": "BENCH_prefix.json"} {
		f := sink(t)
		if err := run(f, index, 1, 1, "table", true); err != nil {
			t.Fatalf("run(%s): %v", index, err)
		}
		blob, err := os.ReadFile(artifact)
		if err != nil || !json.Valid(blob) {
			t.Fatalf("%s: %v (valid JSON: %v)", artifact, err, json.Valid(blob))
		}
		out, _ := os.ReadFile(f.Name())
		if !strings.HasSuffix(string(out), "wrote "+artifact+"\n") {
			t.Fatalf("%s: output does not name the artifact:\n%s", index, out)
		}
	}
}

func TestRunCSVFormat(t *testing.T) {
	f := sink(t)
	if err := run(f, "table1", 1, 1, "csv", false); err != nil {
		t.Fatal(err)
	}
	f.Seek(0, 0)
	buf := make([]byte, 4096)
	n, _ := f.Read(buf)
	out := string(buf[:n])
	if !strings.Contains(out, "Original Source,size (bytes)") {
		t.Fatalf("csv output missing header: %q", out)
	}
	if !strings.Contains(out, `www.gatech.edu,"10,883"`) {
		t.Fatalf("csv quoting wrong: %q", out)
	}
}

func TestRunHeavyExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiments skipped in -short mode")
	}
	for _, e := range experiments {
		if !heavy[e.name] {
			continue
		}
		if err := run(sink(t), e.name, 1, 1, "table", false); err != nil {
			t.Fatalf("run(%s): %v", e.name, err)
		}
	}
}
