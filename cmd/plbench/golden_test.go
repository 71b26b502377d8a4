package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/seed1.golden from this tree")

// goldenExperiments are the experiments whose tables are a pure
// function of the seed: virtual clocks and counts, no wall-clock cell.
var goldenExperiments = []string{
	"table1", "notifier-verifier", "nv-sweep", "replacement", "sharing",
	"cacheability", "chains", "qos", "collection", "cost-ablation",
	"placement", "memo", "cluster", "prefix",
}

// TestSeed1Golden pins the deterministic experiment tables at -seed 1
// (and the default -iters 5) byte for byte, so a change that claims to
// move no number proves it here. Re-pin only for a change that is meant
// to move a table: go test -run TestSeed1Golden -update ./cmd/plbench.
func TestSeed1Golden(t *testing.T) {
	const path = "testdata/seed1.golden"
	var got bytes.Buffer
	for _, name := range goldenExperiments {
		if err := run(&got, name, 1, 5, "table", false); err != nil {
			t.Fatalf("run(%s): %v", name, err)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}
