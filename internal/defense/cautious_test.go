package defense

import (
	"errors"
	"slices"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

func TestCautiousAdoptionSweepMonotone(t *testing.T) {
	g := defGraph(t, 600, 71)
	t1 := g.Tier1s()
	sc := core.Scenario{Victim: t1[0], Attacker: t1[1], Prepend: 4}

	for _, policy := range []DeployPolicy{DeployRandom, DeployTopDegree} {
		out, err := CautiousAdoptionSweep(g, sc, []float64{0, 0.25, 0.5, 0.75, 1}, policy, 1)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if len(out) != 5 {
			t.Fatalf("%v: got %d points", policy, len(out))
		}
		// Zero deployment must equal the plain attack.
		plain, err := core.Simulate(g, sc)
		if err != nil {
			t.Fatal(err)
		}
		if diff := out[0].Pollution - plain.After(); diff > 0.001 || diff < -0.001 {
			t.Errorf("%v: zero-deployment pollution %.3f != plain attack %.3f",
				policy, out[0].Pollution, plain.After())
		}
		// Full deployment must (nearly) kill the attack: everyone
		// quarantines the stripped route while the honest one exists.
		if out[4].Pollution > plain.Before()+0.02 {
			t.Errorf("%v: full deployment still polluted %.3f (natural transit %.3f)",
				policy, out[4].Pollution, plain.Before())
		}
		// Monotone non-increasing in deployment.
		for i := 1; i < len(out); i++ {
			if out[i].Pollution > out[i-1].Pollution+0.05 {
				t.Errorf("%v: pollution rose with deployment: %.3f -> %.3f at %.2f",
					policy, out[i-1].Pollution, out[i].Pollution, out[i].DeployFrac)
			}
		}
		if out[0].Pollution <= out[4].Pollution {
			t.Errorf("%v: deployment gained nothing: %.3f vs %.3f",
				policy, out[0].Pollution, out[4].Pollution)
		}
	}
}

// TestCautiousSweepOnSiblingGraph: Fig. 11's shape — a stub attacker that
// buys transit for the tier-1 victim's sibling — runs through the sweep like
// any graph. Zero deployment is the plain attack, and full deployment
// quarantines the stripped route the sibling link carries upward.
func TestCautiousSweepOnSiblingGraph(t *testing.T) {
	g := defGraph(t, 600, 71)
	victim := g.Tier1s()[0]
	var attacker bgp.ASN
	for _, asn := range g.ASNs() {
		if g.IsStub(asn) && len(g.Providers(asn)) > 0 {
			attacker = asn
			break
		}
	}
	b := topology.Rebuild(g)
	if err := b.AddS2S(victim, 65000); err != nil {
		t.Fatal(err)
	}
	if err := b.AddP2C(attacker, 65000); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc := core.Scenario{Victim: victim, Attacker: attacker, Prepend: 4}
	plain, err := core.Simulate(g, sc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := CautiousAdoptionSweep(g, sc, []float64{0, 1}, DeployTopDegree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Pollution != plain.After() {
		t.Errorf("zero deployment polluted %.4f, the plain attack %.4f", out[0].Pollution, plain.After())
	}
	if plain.After() <= plain.Before() || out[1].Pollution > plain.Before()+0.02 {
		t.Errorf("full deployment polluted %.4f; plain attack %.4f, natural transit %.4f", out[1].Pollution, plain.After(), plain.Before())
	}
}

func TestCautiousTopDegreeBeatsRandomAtLowDeployment(t *testing.T) {
	// Core-first rollout protects more of the Internet per deployer.
	g := defGraph(t, 800, 72)
	t1 := g.Tier1s()
	sc := core.Scenario{Victim: t1[0], Attacker: t1[2], Prepend: 4}
	rnd, err := CautiousAdoptionSweep(g, sc, []float64{0.1}, DeployRandom, 1)
	if err != nil {
		t.Fatal(err)
	}
	top, err := CautiousAdoptionSweep(g, sc, []float64{0.1}, DeployTopDegree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top[0].Pollution > rnd[0].Pollution+0.02 {
		t.Errorf("top-degree deployment (%.3f) clearly worse than random (%.3f)",
			top[0].Pollution, rnd[0].Pollution)
	}
}

func TestCautiousSweepValidation(t *testing.T) {
	g := defGraph(t, 300, 73)
	t1 := g.Tier1s()
	sc := core.Scenario{Victim: t1[0], Attacker: t1[1], Prepend: 3}
	if _, err := CautiousAdoptionSweep(g, sc, nil, DeployRandom, 1); err == nil {
		t.Error("empty fractions accepted")
	}
	if _, err := CautiousAdoptionSweep(g, sc, []float64{1.5}, DeployRandom, 1); err == nil {
		t.Error("fraction > 1 accepted")
	}
}

func TestCautiousQuarantineUsedOnlyAsLastResort(t *testing.T) {
	// A single-homed victim: after the attack, the only route anyone has
	// traverses the attacker. Cautious deployers must still accept it
	// (quarantine is a preference, not a filter) — no blackholing.
	g := defGraph(t, 300, 74)
	var victim routing.Attacker
	// Find a truly single-connected stub (one provider, no peers) so the
	// attacker's branch is the only way in.
	for _, asn := range g.ASNs() {
		if g.IsStub(asn) && len(g.Providers(asn)) == 1 && len(g.Peers(asn)) == 0 {
			victim.AS = asn
			break
		}
	}
	if victim.AS == 0 {
		t.Skip("no single-connected stub")
	}
	attacker := g.Providers(victim.AS)[0]
	sc := core.Scenario{Victim: victim.AS, Attacker: attacker, Prepend: 4}
	out, err := CautiousAdoptionSweep(g, sc, []float64{1}, DeployRandom, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Everyone still reaches the victim (through the attacker: it is the
	// only way), so pollution stays total rather than traffic being lost.
	if out[0].Pollution < 0.95 {
		t.Errorf("quarantine blackholed traffic: pollution %.3f, want ~1 (only path)", out[0].Pollution)
	}
}

// TestCautiousSweepHonorsWithholdAndUnreachableAttacker: the sweep takes
// its announcement and attacker from the scenario the way core.Simulate
// does. A withheld session must shape the attack (zero deployment equals
// the plain attack on the same scenario — it used to be dropped
// silently), and an attacker that never hears the route is
// ErrAttackerSeesNoRoute, not a 0 % row.
func TestCautiousSweepHonorsWithholdAndUnreachableAttacker(t *testing.T) {
	g := defGraph(t, 600, 71)
	// A multihomed stub victim; withholding from one provider moves routes.
	var sc core.Scenario
	for _, asn := range g.ASNs() {
		if !g.IsStub(asn) || len(g.Providers(asn)) < 2 {
			continue
		}
		cand := core.Scenario{Victim: asn, Attacker: g.Tier1s()[0], Prepend: 4, ViolateValleyFree: true}
		open, err := core.Simulate(g, cand)
		if err != nil {
			continue
		}
		cand.PerNeighborPrepend = map[bgp.ASN]int{g.Providers(asn)[0]: 0}
		held, err := core.Simulate(g, cand)
		if err == nil && held.PollutedAfter != open.PollutedAfter {
			sc = cand
			break
		}
	}
	if sc.Victim == 0 {
		t.Fatal("no victim whose withheld session changes the attack")
	}
	plain, err := core.Simulate(g, sc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := CautiousAdoptionSweep(g, sc, []float64{0}, DeployRandom, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Pollution != plain.After() {
		t.Errorf("zero-deployment pollution %.4f, plain attack with the same withheld session %.4f", out[0].Pollution, plain.After())
	}

	// Withhold from every neighbor: nobody, the attacker included, hears
	// the route.
	dark := sc
	dark.PerNeighborPrepend = map[bgp.ASN]int{}
	for _, n := range append(append(g.Providers(sc.Victim), g.Peers(sc.Victim)...), neighborASNs(g, sc.Victim, g.CustomersIdx)...) {
		dark.PerNeighborPrepend[n] = 0
	}
	if _, err := CautiousAdoptionSweep(g, dark, []float64{0, 1}, DeployRandom, 1); !errors.Is(err, core.ErrAttackerSeesNoRoute) {
		t.Errorf("attacker that hears nothing: err = %v, want ErrAttackerSeesNoRoute", err)
	}
	dark.Attacker = 4242424
	if _, err := CautiousAdoptionSweep(g, dark, []float64{0}, DeployRandom, 1); err == nil || errors.Is(err, core.ErrAttackerSeesNoRoute) {
		t.Errorf("unknown attacker: err = %v, want a validation error", err)
	}
}

// neighborASNs returns the ASNs in one of asn's index spans (g.CustomersIdx,
// g.SiblingsIdx, ...), sorted by ASN as g.Providers returns them.
func neighborASNs(g *topology.Graph, asn bgp.ASN, span func(int32) []int32) []bgp.ASN {
	i, ok := g.Index(asn)
	if !ok {
		return nil
	}
	var out []bgp.ASN
	for _, j := range span(i) {
		out = append(out, g.ASNAt(j))
	}
	slices.Sort(out)
	return out
}
