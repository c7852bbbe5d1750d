package defense

import (
	"runtime"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/detect"
	"aspp/internal/topology"
)

func defGraph(t testing.TB, n int, seed int64) *topology.Graph {
	t.Helper()
	cfg := topology.DefaultGenConfig(n)
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g
}

func pickVictim(t testing.TB, g *topology.Graph) bgp.ASN {
	t.Helper()
	// A multihomed stub victim: the self-defense story's protagonist.
	for _, asn := range g.ASNs() {
		if g.IsStub(asn) && len(g.Providers(asn)) >= 2 {
			return asn
		}
	}
	t.Fatal("no multihomed stub in graph")
	return 0
}

func TestSelectMonitorsStrategies(t *testing.T) {
	g := defGraph(t, 600, 51)
	cfg := DefaultConfig(pickVictim(t, g))
	cfg.Budget = 8

	for _, s := range []Strategy{StrategyTopDegree, StrategyRandom, StrategyVictimCone, StrategyGreedy} {
		mons, err := SelectMonitors(g, cfg, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(mons) == 0 || len(mons) > cfg.Budget {
			t.Errorf("%v: %d monitors for budget %d", s, len(mons), cfg.Budget)
		}
		seen := make(map[bgp.ASN]bool)
		for _, m := range mons {
			if seen[m] {
				t.Errorf("%v: duplicate monitor %v", s, m)
			}
			seen[m] = true
			if !g.Has(m) {
				t.Errorf("%v: unknown monitor %v", s, m)
			}
		}
	}
	if _, err := SelectMonitors(g, Config{Victim: cfg.Victim, Budget: 0}, StrategyRandom); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := SelectMonitors(g, cfg, Strategy(99)); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestVictimConeStartsAtProviders(t *testing.T) {
	g := defGraph(t, 600, 51)
	victim := pickVictim(t, g)
	cfg := DefaultConfig(victim)
	cfg.Budget = 4
	mons, err := SelectMonitors(g, cfg, StrategyVictimCone)
	if err != nil {
		t.Fatal(err)
	}
	providers := make(map[bgp.ASN]bool)
	for _, p := range g.Providers(victim) {
		providers[p] = true
	}
	if !providers[mons[0]] {
		t.Errorf("victim-cone monitor[0] = %v, want one of the victim's providers", mons[0])
	}
}

func TestCompareGreedyCompetitive(t *testing.T) {
	g := defGraph(t, 600, 52)
	cfg := DefaultConfig(pickVictim(t, g))
	cfg.Budget = 6
	outcomes, err := Compare(g, cfg)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	byStrategy := make(map[Strategy]Outcome, len(outcomes))
	for _, o := range outcomes {
		byStrategy[o.Strategy] = o
		if o.DetectedFrac < 0 || o.DetectedFrac > 1 {
			t.Errorf("%v: detected fraction %v out of range", o.Strategy, o.DetectedFrac)
		}
	}
	greedy := byStrategy[StrategyGreedy].DetectedFrac
	for _, s := range []Strategy{StrategyRandom, StrategyVictimCone, StrategyTopDegree} {
		if greedy+0.15 < byStrategy[s].DetectedFrac {
			t.Errorf("greedy (%.2f) clearly worse than %v (%.2f)",
				greedy, s, byStrategy[s].DetectedFrac)
		}
	}
	// With a tight budget, a tailored strategy must beat blind random
	// placement.
	if greedy <= byStrategy[StrategyRandom].DetectedFrac-0.05 {
		t.Errorf("greedy (%.2f) <= random (%.2f)", greedy, byStrategy[StrategyRandom].DetectedFrac)
	}
}

func TestCompareValidation(t *testing.T) {
	g := defGraph(t, 300, 53)
	cfg := DefaultConfig(pickVictim(t, g))
	cfg.Prepend = 1
	if _, err := Compare(g, cfg); err == nil {
		t.Error("λ=1 accepted")
	}
}

// TestPollutionIsOwnerPolicyAlarm holds the pollution sets that Compare and
// the greedy strategy score to the §V-B owner check they stand for: over
// every effective attack drawn, an AS's via bit is set exactly when
// detectOwnPolicy (owner_test.go) alarms on that AS's under-attack path,
// the owner announcing cfg.Prepend copies to every neighbor.
func TestPollutionIsOwnerPolicyAlarm(t *testing.T) {
	g := defGraph(t, 600, 55)
	victim := pickVictim(t, g)
	for _, violate := range []bool{true, false} {
		for _, lambda := range []int{2, 5} {
			cfg := DefaultConfig(victim)
			cfg.Prepend, cfg.Violate = lambda, violate
			attacks, err := drawPollution(g, cfg, 20, "defense.compare.eval")
			if err != nil {
				t.Fatal(err)
			}
			policy := func(bgp.ASN) int { return lambda }
			polluted := 0
			for _, a := range attacks {
				im, err := core.Simulate(g, core.Scenario{
					Victim:            victim,
					Attacker:          g.ASNAt(a.attacker),
					Prepend:           lambda,
					ViolateValleyFree: violate,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := int32(0); i < int32(g.NumASes()); i++ {
					asn := g.ASNAt(i)
					route := []detect.MonitorRoute{{Monitor: asn, Path: im.Attacked().PathOfIdx(i)}}
					alarm := len(detectOwnPolicy(victim, policy, route)) > 0
					if a.has(i) != alarm {
						t.Fatalf("λ=%d violate=%v attacker %v: %v via bit %v, owner check alarms %v on %v",
							lambda, violate, im.Scenario.Attacker, asn, a.has(i), alarm, route[0].Path)
					}
					if alarm {
						polluted++
					}
				}
			}
			if len(attacks) == 0 || polluted == 0 {
				t.Errorf("λ=%d violate=%v: %d attacks, %d polluted rows; the check compared nothing",
					lambda, violate, len(attacks), polluted)
			}
		}
	}
}

func TestMitigateUnprepend(t *testing.T) {
	g := defGraph(t, 600, 54)
	t1 := g.Tier1s()
	sc := core.Scenario{Victim: t1[0], Attacker: t1[1], Prepend: 4}
	out, err := Mitigate(g, sc, MitigateUnprepend)
	if err != nil {
		t.Fatalf("Mitigate: %v", err)
	}
	if out.DuringAttack <= 0 {
		t.Skip("attack had no effect in this instance")
	}
	// Unprepending removes the length advantage: pollution collapses to
	// (near) the natural transit share.
	if out.AfterResponse >= out.DuringAttack {
		t.Errorf("unprepend did not reduce pollution: %.3f -> %.3f",
			out.DuringAttack, out.AfterResponse)
	}
	// Nobody loses reachability.
	if out.ReachableAfter < out.ReachableDuring {
		t.Errorf("unprepend lost reachability: %d -> %d",
			out.ReachableDuring, out.ReachableAfter)
	}
}

// TestMitigateUnprependKeepsWithheldSession: unprepending drops every
// padded per-neighbor λ but not a withheld (λ 0) session. The victim
// multihomes to 30, 40 and 60, withholds from 30 and pads 60; attacker 40
// strips. The response must be the plain λ-1 attack with 30 still at 0,
// which differs from the one that re-announces to 30.
func TestMitigateUnprependKeepsWithheldSession(t *testing.T) {
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{10, 30}, {10, 40}, {20, 30}, {20, 40}, {20, 60},
		{30, 100}, {40, 100}, {60, 100}, {10, 70}, {20, 80},
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
	sc := core.Scenario{Victim: 100, Attacker: 40, Prepend: 4, PerNeighborPrepend: map[bgp.ASN]int{30: 0, 60: 6}}
	out, err := Mitigate(g, sc, MitigateUnprepend)
	if err != nil {
		t.Fatalf("Mitigate: %v", err)
	}
	if sc.PerNeighborPrepend[60] != 6 {
		t.Errorf("Mitigate rewrote the scenario's table: %v", sc.PerNeighborPrepend)
	}
	simulate := func(pn map[bgp.ASN]int) *core.Impact {
		t.Helper()
		im, err := core.Simulate(g, core.Scenario{Victim: 100, Attacker: 40, Prepend: 1, PerNeighborPrepend: pn})
		if err != nil {
			t.Fatal(err)
		}
		return im
	}
	want, open := simulate(map[bgp.ASN]int{30: 0}), simulate(nil)
	if out.AfterResponse != want.After() || out.ReachableAfter != want.Attacked().ReachableCount() {
		t.Errorf("response polluted %.3f with %d reachable, want %.3f with %d (λ 1, 30 withheld)",
			out.AfterResponse, out.ReachableAfter, want.After(), want.Attacked().ReachableCount())
	}
	if want.After() == open.After() {
		t.Fatalf("premise broken: withholding from 30 does not change the λ-1 attack (%.3f)", open.After())
	}
}

func TestMitigateWithhold(t *testing.T) {
	// Hand-built scenario: the victim multihomes to 30 (primary) and 40;
	// attacker 40 strips. Withholding from 40 cuts the attack entirely.
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{10, 30}, {10, 40}, {20, 30}, {20, 40},
		{30, 100}, {40, 100}, {10, 70}, {20, 80},
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
	sc := core.Scenario{Victim: 100, Attacker: 40, Prepend: 4}
	out, err := Mitigate(g, sc, MitigateWithhold)
	if err != nil {
		t.Fatalf("Mitigate: %v", err)
	}
	if out.DuringAttack <= 0 {
		t.Fatalf("attack had no effect: %+v", out)
	}
	if out.AfterResponse != 0 {
		t.Errorf("withholding from the attacker left pollution %.3f", out.AfterResponse)
	}
	// The victim stays reachable through its primary.
	if out.ReachableAfter < out.ReachableDuring {
		t.Errorf("withhold lost reachability: %d -> %d", out.ReachableDuring, out.ReachableAfter)
	}
}

func TestMitigateWithholdCanBackfire(t *testing.T) {
	// A deep attacker (top provider 50) whose stripped route loses to
	// everyone's customer routes: the attack pollutes nobody. Naively
	// withholding from the entry branch then *removes* those protective
	// customer routes, and the re-simulation shows the response creating
	// pollution that was not there — the honest report a deployment needs
	// before acting.
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{10, 30}, {10, 40}, {50, 10}, {50, 20}, {20, 30},
		{30, 100}, {40, 100},
	} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc := core.Scenario{Victim: 100, Attacker: 50, Prepend: 4}
	out, err := Mitigate(g, sc, MitigateWithhold)
	if err != nil {
		t.Fatalf("Mitigate: %v", err)
	}
	if out.DuringAttack != 0 {
		t.Fatalf("premise broken: attack polluted %.3f, want 0", out.DuringAttack)
	}
	if out.AfterResponse <= 0 {
		t.Errorf("expected the naive withhold to backfire, got %.3f polluted", out.AfterResponse)
	}
}

func TestMitigateUnknownMitigation(t *testing.T) {
	g := defGraph(t, 300, 55)
	t1 := g.Tier1s()
	if _, err := Mitigate(g, core.Scenario{Victim: t1[0], Attacker: t1[1], Prepend: 3}, Mitigation(99)); err == nil {
		t.Error("unknown mitigation accepted")
	}
}

func TestDefenseStringers(t *testing.T) {
	for s, want := range map[Strategy]string{
		StrategyTopDegree: "top-degree", StrategyRandom: "random",
		StrategyVictimCone: "victim-cone", StrategyGreedy: "greedy",
	} {
		if s.String() != want {
			t.Errorf("Strategy %d = %q, want %q", s, s.String(), want)
		}
	}
	for m, want := range map[Mitigation]string{
		MitigateUnprepend: "unprepend", MitigateWithhold: "withhold",
	} {
		if m.String() != want {
			t.Errorf("Mitigation %d = %q, want %q", m, m.String(), want)
		}
	}
	for p, want := range map[DeployPolicy]string{
		DeployRandom: "random", DeployTopDegree: "top-degree",
	} {
		if p.String() != want {
			t.Errorf("DeployPolicy %d = %q, want %q", p, p.String(), want)
		}
	}
}

func TestMitigateAttackError(t *testing.T) {
	g := defGraph(t, 300, 75)
	t1 := g.Tier1s()
	// Invalid scenario surfaces the underlying error.
	if _, err := Mitigate(g, core.Scenario{Victim: t1[0], Attacker: t1[0], Prepend: 3}, MitigateUnprepend); err == nil {
		t.Error("victim == attacker accepted")
	}
}

// withGOMAXPROCS sets GOMAXPROCS, and with it the shard and worker count of
// every sweep, for the rest of the test.
func withGOMAXPROCS(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
