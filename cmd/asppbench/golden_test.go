package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./cmd/asppbench/ -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden/")

// goldenRun executes one asppbench invocation and returns its full output.
func goldenRun(t *testing.T, args ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.Bytes()
}

// TestGoldenFigures pins the exact TSV output of the fig9 (λ sweep) and
// fig13 (detection accuracy) experiments at a fixed topology and seed. Any
// engine or model change that shifts a single pollution count, rank or
// percentage shows up as a byte diff here; intentional changes are
// re-pinned with -update. The sharded fig9 cases hold the shard-invariance
// differentials to the committed file, not just to each other.
func TestGoldenFigures(t *testing.T) {
	fig9 := []string{"-exp", "fig9", "-n", "400", "-seed", "1"}
	cases := []struct {
		name, golden string
		args         []string
	}{
		{name: "fig9", golden: "fig9", args: fig9},
		{name: "fig9-shards1", golden: "fig9", args: append([]string{"-shards", "1"}, fig9...)},
		// Named for the -batch 8 it ran with until the lane engines went.
		{name: "fig9-shards7-batch8-budget", golden: "fig9", args: append([]string{"-shards", "7", "-mem-budget", "64k"}, fig9...)},
		{name: "fig13", golden: "fig13", args: []string{"-exp", "fig13", "-n", "400", "-seed", "1", "-pairs", "20"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenRun(t, tc.args...)
			path := filepath.Join("testdata", "golden", tc.golden+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s (re-pin with -update if intended)\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}

// There is no -engine flag to hold to these files any more: core picks
// the engine (ASPP legs run delta, forged claims the full kernel, sibling
// graphs the reference engine). The property TestGoldenEngineAgreement
// held — full recomputation and delta propagation emit the same figures —
// stays pinned by the routing package's Delta-vs-Fast-vs-Reference
// differential suite and, since core.Simulate now runs delta where it ran
// the full kernel when they were recorded, by the unchanged fig13 golden
// above and the unchanged fig13, fig14 and compare digests in
// bench/testdata/digests.json.
