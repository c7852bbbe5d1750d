package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunStatsAndExport(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "rels.txt")
	var sb strings.Builder
	if err := run([]string{"-n", "400", "-seed", "3", "-out", out}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "ASes:") || !strings.Contains(sb.String(), "tier-1") || !strings.Contains(sb.String(), "single-homed") {
		t.Errorf("stats missing:\n%s", sb.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("export not written: %v", err)
	}
	if !strings.Contains(string(data), "|-1") {
		t.Error("export missing p2c links")
	}

	// The export loads back.
	var sb2 strings.Builder
	if err := run([]string{"-topo", out}, &sb2); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if !strings.Contains(sb2.String(), "ASes:            400") {
		t.Errorf("reload stats wrong:\n%s", sb2.String())
	}
}

func TestRunInfer(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-n", "400", "-infer", "-infer-origins", "60"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "classified links:") {
		t.Errorf("inference report missing:\n%s", sb.String())
	}
}

// TestRunPresetDigest: the internet80k preset reproduces the canonical
// fixture digest end to end through the CLI (the committed scale results
// are tied to this graph), and -n scales the preset's shape down.
func TestRunPresetDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("80k generation under -short")
	}
	var sb strings.Builder
	if err := run([]string{"-preset", "internet80k", "-stats=false", "-digest"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "digest:          0x661d6d375e6cd96b") {
		t.Errorf("canonical internet80k digest missing:\n%s", sb.String())
	}
}

func TestRunPresetScaledDown(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-preset", "internet80k", "-n", "2000", "-stats=false", "-digest"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	first := sb.String()
	if !strings.Contains(first, "digest:          0x") {
		t.Errorf("digest line missing:\n%s", first)
	}
	// Deterministic: same invocation, same digest.
	var sb2 strings.Builder
	if err := run([]string{"-preset", "internet80k", "-n", "2000", "-stats=false", "-digest"}, &sb2); err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if sb2.String() != first {
		t.Errorf("preset digest nondeterministic:\n%s\nvs\n%s", first, sb2.String())
	}
}

func TestRunPresetUnknown(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-preset", "internet9000"}, &sb); err == nil || !strings.Contains(err.Error(), "-preset") {
		t.Errorf("unknown preset: want a -preset error, got %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-topo", "/nonexistent"}, &sb); err == nil {
		t.Error("missing topo accepted")
	}
	if err := run([]string{"-n", "4"}, &sb); err == nil {
		t.Error("tiny n accepted")
	}
}

// TestRunStatsSiblingTopology: path statistics come off the routing kernel,
// which routes sibling links, so a sibling-bearing file gets its paths line.
func TestRunStatsSiblingTopology(t *testing.T) {
	file := filepath.Join(t.TempDir(), "siblings.txt")
	rels := "1|2|-1\n1|3|-1\n2|4|-1\n3|5|-1\n4|5|2\n5|6|-1\n"
	if err := os.WriteFile(file, []byte(rels), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-topo", file}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(sb.String(), "paths:           mean 1.7 hops, max 3, reachable 100.0%") {
		t.Errorf("paths line missing or wrong:\n%s", sb.String())
	}
}
