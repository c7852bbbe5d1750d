package core

import (
	"errors"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// coreGraph mirrors the routing package's hand-checkable topology:
//
//	    10 ------- 20          tier-1 peers
//	   /  \       /| \
//	 30    40   50 65 60       tier-2
//	 |       \  /       \
//	100       70        200    edge (200 also customer of 65)
func coreGraph(t testing.TB) *topology.Graph {
	t.Helper()
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{10, 30}, {10, 40}, {20, 50}, {20, 60}, {20, 65},
		{30, 100}, {40, 70}, {50, 70}, {60, 200}, {65, 200},
	} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddP2P(10, 20); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSimulateStripAttack(t *testing.T) {
	g := coreGraph(t)
	im, err := Simulate(g, Scenario{Victim: 100, Attacker: 50, Prepend: 3})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	// Eligible: all 10 ASes minus victim and attacker.
	if im.Eligible != 8 {
		t.Errorf("Eligible = %d, want 8", im.Eligible)
	}
	if im.PollutedBefore != 0 {
		t.Errorf("PollutedBefore = %d, want 0", im.PollutedBefore)
	}
	// Only 70 switches to the stripped route (see routing tests).
	if im.PollutedAfter != 1 {
		t.Errorf("PollutedAfter = %d, want 1", im.PollutedAfter)
	}
	if got := im.After(); got != 0.125 {
		t.Errorf("After = %v, want 0.125", got)
	}
	polluted := im.PollutedASes()
	if len(polluted) != 1 || polluted[0] != 70 {
		t.Errorf("PollutedASes = %v, want [70]", polluted)
	}
	newly := im.NewlyPolluted()
	if len(newly) != 1 || newly[0] != 70 {
		t.Errorf("NewlyPolluted = %v, want [70]", newly)
	}
	if !im.IsPolluted(70) || im.IsPolluted(40) {
		t.Error("IsPolluted misreports")
	}
	before, after := im.PathsAt(70)
	if before.String() != "40 10 30 100 100 100" {
		t.Errorf("before path = %q", before)
	}
	if after.String() != "50 20 10 30 100" {
		t.Errorf("after path = %q", after)
	}
	if got := im.HopsFromAttacker(70); got != 1 {
		t.Errorf("HopsFromAttacker(70) = %d, want 1", got)
	}
	if got := im.HopsFromAttacker(40); got != -1 {
		t.Errorf("HopsFromAttacker(unpolluted) = %d, want -1", got)
	}
}

func TestSimulateViolateScenario(t *testing.T) {
	g := coreGraph(t)
	follow, err := Simulate(g, Scenario{Victim: 100, Attacker: 200, Prepend: 3})
	if err != nil {
		t.Fatalf("Simulate(follow): %v", err)
	}
	if follow.PollutedAfter != 0 {
		t.Errorf("follow PollutedAfter = %d, want 0", follow.PollutedAfter)
	}
	violate, err := Simulate(g, Scenario{
		Victim: 100, Attacker: 200, Prepend: 3, ViolateValleyFree: true,
	})
	if err != nil {
		t.Fatalf("Simulate(violate): %v", err)
	}
	if violate.PollutedAfter != 1 {
		t.Errorf("violate PollutedAfter = %d, want 1", violate.PollutedAfter)
	}
	if got := violate.PollutedASes(); len(got) != 1 || got[0] != 65 {
		t.Errorf("violate PollutedASes = %v, want [65]", got)
	}
}

func TestSimulateMorePrependsNeverHurt(t *testing.T) {
	// The pollution fraction must be nondecreasing in λ: more padding can
	// only make the stripped route relatively shorter.
	g := coreGraph(t)
	prev := -1.0
	for lambda := 1; lambda <= 8; lambda++ {
		im, err := Simulate(g, Scenario{Victim: 100, Attacker: 50, Prepend: lambda})
		if err != nil {
			t.Fatalf("λ=%d: %v", lambda, err)
		}
		if im.After() < prev {
			t.Errorf("pollution dropped from %v to %v at λ=%d", prev, im.After(), lambda)
		}
		prev = im.After()
	}
}

func TestSimulateBeforeCountsExistingTransit(t *testing.T) {
	// Attacker 20 is on many baseline paths; Before must reflect that.
	g := coreGraph(t)
	im, err := Simulate(g, Scenario{Victim: 100, Attacker: 20, Prepend: 3})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	// Baseline via 20: 50, 60, 65, 200 -> 4 of 8 eligible.
	if im.PollutedBefore != 4 {
		t.Errorf("PollutedBefore = %d, want 4", im.PollutedBefore)
	}
	if im.PollutedAfter < im.PollutedBefore {
		t.Errorf("After (%d) < Before (%d); stripping lost pollution",
			im.PollutedAfter, im.PollutedBefore)
	}
}

func TestSimulateErrors(t *testing.T) {
	g := coreGraph(t)
	if _, err := Simulate(g, Scenario{Victim: 100, Attacker: 100, Prepend: 3}); err == nil {
		t.Error("victim == attacker accepted")
	}
	if _, err := Simulate(g, Scenario{Victim: 100, Attacker: 50, Prepend: 0}); err == nil {
		t.Error("λ=0 accepted")
	}
	// Unreachable attacker: build a graph with an isolated AS.
	b := topology.NewBuilder()
	if err := b.AddP2C(10, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.AddAS(999); err != nil {
		t.Fatal(err)
	}
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Simulate(g2, Scenario{Victim: 100, Attacker: 999, Prepend: 3})
	if !errors.Is(err, ErrAttackerSeesNoRoute) {
		t.Errorf("err = %v, want ErrAttackerSeesNoRoute", err)
	}
}

func TestSimulateAgainstReferenceEngine(t *testing.T) {
	// End-to-end cross-check of the core metrics against the reference
	// engine's explicit paths.
	cfg := topology.DefaultGenConfig(150)
	cfg.Seed = 99
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	asns := g.ASNs()
	victim, attacker := asns[17], asns[103]
	sc := Scenario{Victim: victim, Attacker: attacker, Prepend: 4}
	im, err := Simulate(g, sc)
	if errors.Is(err, ErrAttackerSeesNoRoute) {
		t.Skip("attacker unreachable in this instance")
	}
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	ann := routing.Announcement{Origin: victim, Prepend: 4}
	atk := routing.Attacker{AS: attacker}
	ref, err := routing.PropagateReference(g, ann, &atk)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	refPolluted := 0
	for i := int32(0); i < int32(g.NumASes()); i++ {
		asn := g.ASNAt(i)
		if asn == victim || asn == attacker {
			continue
		}
		if ref.PathOfIdx(i).Contains(attacker) {
			refPolluted++
		}
	}
	if im.PollutedAfter != refPolluted {
		t.Errorf("PollutedAfter = %d, reference says %d", im.PollutedAfter, refPolluted)
	}
}

func TestSimulateOnSiblingGraph(t *testing.T) {
	// A sibling-bearing topology runs both legs on the full kernel and
	// lands on the message-level engine's routes.
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{10, 40}, {20, 50}, {40, 60}, {50, 70}, {60, 90},
	} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]bgp.ASN{{10, 20}, {10, 30}, {20, 30}} {
		if err := b.AddP2P(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddS2S(30, 90); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	im, err := Simulate(g, Scenario{Victim: 30, Attacker: 60, Prepend: 4})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	// The sibling makes 60's route customer-learned: valley-free upward
	// export succeeds, polluting 60's provider 40 and beyond.
	if !im.IsPolluted(40) {
		t.Errorf("40 not polluted; sibling dispatch broken (polluted: %v)", im.PollutedASes())
	}
	if im.Before() > im.After() {
		t.Errorf("pollution fell: %v -> %v", im.Before(), im.After())
	}
	if b, a := im.PathsAt(40); b.Equal(a) {
		t.Error("40's path unchanged under attack")
	}
	ref, err := routing.PropagateReference(g, im.Scenario.Announcement(), &routing.Attacker{AS: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range g.ASNs() {
		if got, want := im.Attacked().PathOf(asn), ref.PathOf(asn); !got.Equal(want) {
			t.Errorf("AS %v: path %v, reference engine %v", asn, got, want)
		}
	}
	var c obs.Counters
	if _, err := SimulateScratch(g, im.Scenario, nil, routing.NewScratch(), &c); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.BasePropagations != 1 || s.FullPropagations != 1 || s.DeltaPropagations != 0 {
		t.Errorf("sibling legs counted as %+v, want one baseline and one full propagation", s)
	}
	// Unreachable attacker on a sibling graph maps to the sentinel.
	if err := b2(t, g); err != nil {
		t.Fatal(err)
	}
}

// b2 checks the sibling-graph unreachable-attacker path via an island AS.
func b2(t *testing.T, base *topology.Graph) error {
	t.Helper()
	rb := topology.Rebuild(base)
	if err := rb.AddAS(9999); err != nil {
		return err
	}
	g, err := rb.Build()
	if err != nil {
		return err
	}
	_, err = Simulate(g, Scenario{Victim: 30, Attacker: 9999, Prepend: 3})
	if !errors.Is(err, ErrAttackerSeesNoRoute) {
		t.Errorf("sibling-graph unreachable attacker: err = %v", err)
	}
	return nil
}

// TestBaselineOnly: a scenario's announcement propagated with no attacker
// reaches everyone, and the scenario's withholds apply to it.
func TestBaselineOnly(t *testing.T) {
	g := coreGraph(t)
	res, err := routing.Propagate(g, Scenario{Victim: 100, Attacker: 50, Prepend: 3}.Announcement())
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if res.ReachableCount() != g.NumASes()-1 {
		t.Errorf("ReachableCount = %d", res.ReachableCount())
	}
	// Scenario withholding applies to the baseline too.
	res2, err := routing.Propagate(g, Scenario{
		Victim: 100, Attacker: 50, Prepend: 3, PerNeighborPrepend: map[bgp.ASN]int{30: 0},
	}.Announcement())
	if err != nil {
		t.Fatal(err)
	}
	if res2.ReachableCount() != 0 {
		t.Errorf("withheld-only baseline reachable = %d, want 0 (single provider)", res2.ReachableCount())
	}
}

func TestScenarioAndImpactAccessors(t *testing.T) {
	g := coreGraph(t)
	sc := Scenario{Victim: 100, Attacker: 50, Prepend: 3, ViolateValleyFree: true}
	if s := sc.String(); s == "" || s[0] != 'A' {
		t.Errorf("Scenario.String() = %q", s)
	}
	im, err := Simulate(g, sc)
	if err != nil {
		t.Fatal(err)
	}
	if im.Baseline() == nil || im.Attacked() == nil {
		t.Error("nil result accessors")
	}
	if im.Before() < 0 || im.Before() > 1 {
		t.Errorf("Before = %v", im.Before())
	}
	if im.IsPolluted(42424242) {
		t.Error("unknown AS polluted")
	}
}
