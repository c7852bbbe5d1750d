package experiment

import (
	"context"
	"errors"
	"testing"

	"aspp/internal/obs"
)

func TestSiblingScenarioEnablesValleyFreeInterception(t *testing.T) {
	g := expGraph(t, 500, 41)
	attacker, err := PickContentStub(g)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := PickTier1ByDegree(g, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Without the sibling, a rule-following stub attacker captures nobody.
	follow, err := SweepPrependCfgCtx(context.Background(), g, SweepConfig{Victim: victim, Attacker: attacker, MaxLambda: 6})
	if err != nil {
		t.Fatal(err)
	}
	if follow[5].After != 0 {
		t.Fatalf("stub attacker polluted %.3f without the sibling", follow[5].After)
	}

	sc, err := BuildSiblingScenario(g, victim, attacker, 65530)
	if err != nil {
		t.Fatalf("BuildSiblingScenario: %v", err)
	}
	points, err := sc.Sweep(6)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d points", len(points))
	}
	// The paper's Fig. 11: substantial pollution at high λ while following
	// valley-free export rules.
	if points[5].After <= 0.05 {
		t.Errorf("sibling-enabled pollution at λ=6 = %.3f, want substantial", points[5].After)
	}
	// Monotone in λ.
	for i := 1; i < len(points); i++ {
		if points[i].After+1e-9 < points[i-1].After {
			t.Errorf("pollution dropped at λ=%d: %.4f -> %.4f",
				points[i].Lambda, points[i-1].After, points[i].After)
		}
	}
}

func TestBuildSiblingScenarioValidation(t *testing.T) {
	g := expGraph(t, 300, 42)
	asns := g.ASNs()
	if _, err := BuildSiblingScenario(g, 4294000000, asns[1], 65530); err == nil {
		t.Error("unknown victim accepted")
	}
	if _, err := BuildSiblingScenario(g, asns[0], asns[1], asns[2]); err == nil {
		t.Error("in-use sibling ASN accepted")
	}
	sc, err := BuildSiblingScenario(g, asns[0], asns[1], 65530)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Graph.NumASes() != g.NumASes()+1 {
		t.Errorf("extended graph has %d ASes, want %d", sc.Graph.NumASes(), g.NumASes()+1)
	}
	if !sc.Graph.HasSiblings() {
		t.Error("extended graph has no sibling link")
	}
	// The original graph is untouched.
	if g.HasSiblings() || g.Has(65530) {
		t.Error("BuildSiblingScenario mutated the input graph")
	}
	if _, err := sc.Sweep(0); err == nil {
		t.Error("Sweep(0) accepted")
	}
}

// TestSiblingSweepCountedAndCancellable: the sibling leg runs through the
// one sweep entry point, so its full-kernel propagations — one baseline per
// shard, its other λ shifted, and one attack per λ — land in the caller's
// counters and a cancelled context stops it. (It used to be a private loop
// that did neither.)
func TestSiblingSweepCountedAndCancellable(t *testing.T) {
	g := expGraph(t, 300, 42)
	attacker, err := PickContentStub(g)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := PickTier1ByDegree(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := BuildSiblingScenario(g, victim, attacker, 65530)
	if err != nil {
		t.Fatal(err)
	}
	c := new(obs.Counters)
	cfg := SweepConfig{Victim: sib.Victim, Attacker: sib.Attacker, MaxLambda: 6, Workers: 2, Counters: c}
	counted, err := SweepPrependCfgCtx(context.Background(), sib.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.BasePropagations != 2 || s.BaselineHits != 4 || s.FullPropagations != 6 {
		t.Fatalf("sibling sweep counted prop_base=%d cache_hit=%d prop_full=%d, want 2, 4 and 6", s.BasePropagations, s.BaselineHits, s.FullPropagations)
	}
	thin, err := sib.Sweep(6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range thin {
		if thin[i] != counted[i] {
			t.Fatalf("Sweep(6)[%d] = %+v, entry point gives %+v", i, thin[i], counted[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepPrependCfgCtx(ctx, sib.Graph, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sibling sweep: err=%v, want context.Canceled", err)
	}
}
