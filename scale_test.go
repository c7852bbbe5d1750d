package aspp

// Scale tests: the library must handle Internet-realistic topology sizes.
// Skipped under -short.

import (
	"context"
	"testing"
	"time"

	"aspp/internal/core"
	"aspp/internal/experiment"
)

func TestLargeScaleAttackSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test skipped in -short mode")
	}
	start := time.Now()
	g := testGraph(t, 30000, 3)
	genDur := time.Since(start)

	t1 := g.Tier1s()
	start = time.Now()
	im, err := core.Simulate(g, core.Scenario{Victim: t1[0], Attacker: t1[1], Prepend: 3})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	simDur := time.Since(start)

	if im.Eligible < 25000 {
		t.Errorf("only %d eligible ASes at n=30000", im.Eligible)
	}
	if im.After() <= 0 {
		t.Error("tier-1 attack captured nobody at scale")
	}
	t.Logf("n=30000: generate %v, simulate %v, pollution %.1f%%",
		genDur.Round(time.Millisecond), simDur.Round(time.Millisecond), 100*im.After())

	// A paper-scale simulation must be fast enough for the pair
	// experiments: a single attack simulation beyond ~2s would make the
	// 200-pair detection run impractical.
	if simDur > 2*time.Second {
		t.Errorf("attack simulation took %v at n=30000, want < 2s", simDur)
	}
}

func TestLargeScaleDetectionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test skipped in -short mode")
	}
	g := testGraph(t, 12000, 4)
	cfg := experiment.DefaultDetectionConfig()
	cfg.MonitorCounts = []int{70, 150}
	cfg.Pairs = 40
	start := time.Now()
	out, err := experiment.RunDetectionCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("RunDetection: %v", err)
	}
	acc := out.Accuracy[0]
	if acc[1].Detected < acc[0].Detected-0.05 {
		t.Errorf("accuracy fell with more monitors at scale: %+v", acc)
	}
	t.Logf("n=12000 detection sweep (%d pairs): %v, detected@150=%.2f",
		out.UsablePairs, time.Since(start).Round(time.Millisecond), acc[1].Detected)
}
