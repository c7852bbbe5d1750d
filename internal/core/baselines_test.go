package core

import (
	"errors"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// originsSeen tallies the under-attack paths by their origin AS — the MOAS
// view a route collector would compute.
func originsSeen(im *Impact) map[bgp.ASN]int {
	out := make(map[bgp.ASN]int)
	for _, asn := range im.Attacked().Graph().ASNs() {
		if o, ok := im.Attacked().PathOf(asn).Origin(); ok {
			out[o]++
		}
	}
	return out
}

func TestSimulateForgedOriginHijack(t *testing.T) {
	g := coreGraph(t)
	im, err := Simulate(g, Scenario{Victim: 100, Attacker: 200, Prepend: 3, Type: AttackOriginHijack})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	// The hijacker's forged [200] route (length 1, exported up as a
	// customer route by its providers) must capture a large share.
	if im.After() <= im.Before() {
		t.Errorf("origin hijack captured nothing: %.3f -> %.3f", im.Before(), im.After())
	}
	// MOAS must be visible: some ASes now see origin 200.
	if byOrigin := originsSeen(im); byOrigin[200] == 0 || byOrigin[100] == 0 {
		t.Errorf("origin split = %v, want both origins present", byOrigin)
	}
	// Every captured AS is 1+ hops from the hijacker along its path.
	for _, asn := range im.PollutedASes() {
		if h := im.HopsFromAttacker(asn); h < 1 {
			t.Errorf("HopsFromAttacker(%v) = %d", asn, h)
		}
	}
}

func TestSimulateForgedNextHop(t *testing.T) {
	g := coreGraph(t)
	im, err := Simulate(g, Scenario{Victim: 100, Attacker: 200, Prepend: 3, Type: AttackNextHopInterception})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if im.After() <= 0 {
		t.Error("next-hop interception captured nobody")
	}
	// Every captured path keeps the true origin but carries the forged
	// 200-100 adjacency.
	for _, asn := range im.PollutedASes() {
		_, p := im.PathsAt(asn)
		if o, _ := p.Origin(); o != 100 || !p.Contains(200) {
			t.Errorf("%v's hijacked path %v: want origin 100 via 200", asn, p)
		}
	}
	if g.RelOf(200, 100) != 0 {
		t.Fatal("fixture broken: 200-100 must not be adjacent")
	}
}

func TestSimulateForgedValidation(t *testing.T) {
	g := coreGraph(t)
	for _, typ := range []AttackType{AttackOriginHijack, AttackNextHopInterception} {
		if _, err := Simulate(g, Scenario{Victim: 100, Attacker: 100, Prepend: 3, Type: typ}); err == nil {
			t.Errorf("%v: victim == attacker accepted", typ)
		}
		if _, err := Simulate(g, Scenario{Victim: 100, Attacker: 99999, Prepend: 3, Type: typ}); err == nil {
			t.Errorf("%v: unknown attacker accepted", typ)
		}
		if _, err := Simulate(g, Scenario{Victim: 100, Attacker: 200, Prepend: 0, Type: typ}); err == nil {
			t.Errorf("%v: λ=0 accepted", typ)
		}
	}
	if _, err := Simulate(g, Scenario{Victim: 100, Attacker: 200, Prepend: 3, Type: AttackNextHopInterception + 1}); err == nil {
		t.Error("unknown attack type accepted")
	}
}

// TestSimulateForgedNeedsNoRoute: a forger that never hears the victim's
// route still attacks (the ASPP attacker cannot), on sibling-bearing
// topologies too — every family runs there, on both entry points.
func TestSimulateForgedNeedsNoRoute(t *testing.T) {
	g := coreGraph(t)
	dark := Scenario{Victim: 100, Attacker: 200, Prepend: 3, PerNeighborPrepend: map[bgp.ASN]int{30: 0}}
	if _, err := Simulate(g, dark); !errors.Is(err, ErrAttackerSeesNoRoute) {
		t.Errorf("ASPP on a dark prefix: err = %v, want ErrAttackerSeesNoRoute", err)
	}
	dark.Type = AttackOriginHijack
	im, err := Simulate(g, dark)
	if err != nil {
		t.Fatalf("origin hijack on a dark prefix: %v", err)
	}
	// Nobody had a route, so nobody is eligible — but everyone is captured.
	if im.Eligible != 0 || viaCount(im.Attacked()) != g.NumASes()-2 {
		t.Errorf("eligible %d, captured %d", im.Eligible, viaCount(im.Attacked()))
	}

	rb := topology.Rebuild(g)
	if err := rb.AddS2S(100, 4242); err != nil {
		t.Fatal(err)
	}
	sib, err := rb.Build()
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Victim: 100, Attacker: 200, Prepend: 3}
	if _, err := Simulate(sib, sc); err != nil {
		t.Fatalf("ASPP on the sibling graph: %v", err)
	}
	for _, typ := range []AttackType{AttackOriginHijack, AttackNextHopInterception} {
		sc.Type = typ
		im, err := Simulate(sib, sc)
		if err != nil {
			t.Fatalf("%v on the sibling graph: %v", typ, err)
		}
		// The victim's sibling has no other link: the claim cannot reach it.
		if im.PollutedAfter == 0 || im.IsPolluted(4242) {
			t.Errorf("%v: polluted %d, sibling polluted %v", typ, im.PollutedAfter, im.IsPolluted(4242))
		}
		borrowed, err := SimulateScratch(sib, sc, nil, routing.NewScratch(), nil)
		if err != nil {
			t.Fatalf("%v on the sibling graph (scratch path): %v", typ, err)
		}
		if borrowed.Counts != im.Counts {
			t.Errorf("%v: scratch path %+v, Simulate %+v", typ, borrowed.Counts, im.Counts)
		}
	}
}

// TestSimulateForgedPinnedCounts pins the forged families' pollution counts
// to the numbers the message-level multi-announcer driver
// (routing.PropagateSeeds behind core's removed baseline simulator)
// produced at commit 2270e6e for the same pairs, and checks that the
// scratch path agrees and that each leg lands on the engine the selection
// table names (forged: full kernel).
func TestSimulateForgedPinnedCounts(t *testing.T) {
	pins := []struct {
		n                       int
		seed                    int64
		victim, attacker        bgp.ASN
		typ                     AttackType
		lambda                  int
		eligible, before, after int
	}{
		{600, 71, 5583, 18123, AttackOriginHijack, 1, 598, 166, 232},
		{600, 71, 5583, 18123, AttackOriginHijack, 3, 598, 166, 595},
		{600, 71, 5583, 18123, AttackNextHopInterception, 1, 598, 166, 166},
		{600, 71, 5583, 18123, AttackNextHopInterception, 3, 598, 166, 499},
		{600, 71, 23802, 20737, AttackOriginHijack, 3, 598, 0, 579},
		{600, 71, 23802, 20737, AttackNextHopInterception, 1, 598, 0, 406},
		{600, 71, 7918, 20613, AttackOriginHijack, 1, 598, 16, 325},
		{600, 71, 7918, 20613, AttackNextHopInterception, 3, 598, 16, 374},
		{600, 71, 18123, 38792, AttackOriginHijack, 3, 598, 0, 556},
		{600, 71, 18123, 38792, AttackNextHopInterception, 3, 598, 0, 510},
		{1500, 5, 20157, 32540, AttackOriginHijack, 3, 1498, 580, 1498},
		{1500, 5, 20157, 32540, AttackNextHopInterception, 3, 1498, 580, 1497},
		{1500, 5, 6863, 14632, AttackOriginHijack, 1, 1498, 0, 523},
		{1500, 5, 6863, 14632, AttackNextHopInterception, 3, 1498, 0, 1013},
		{1500, 5, 59436, 34952, AttackOriginHijack, 3, 1498, 355, 1054},
		{1500, 5, 59436, 34952, AttackNextHopInterception, 1, 1498, 355, 621},
		{1500, 5, 32540, 2588, AttackOriginHijack, 3, 1498, 0, 729},
		{1500, 5, 32540, 2588, AttackNextHopInterception, 1, 1498, 0, 261},
	}
	graphs := map[int]*topology.Graph{}
	s := routing.NewScratch()
	for _, p := range pins {
		g := graphs[p.n]
		if g == nil {
			cfg := topology.DefaultGenConfig(p.n)
			cfg.Seed = p.seed
			var err error
			if g, err = topology.Generate(cfg); err != nil {
				t.Fatal(err)
			}
			graphs[p.n] = g
		}
		sc := Scenario{Victim: p.victim, Attacker: p.attacker, Prepend: p.lambda, Type: p.typ}
		var c obs.Counters
		im, err := SimulateScratch(g, sc, nil, nil, &c)
		if err != nil {
			t.Fatalf("%v %v: %v", sc, p.typ, err)
		}
		if im.Eligible != p.eligible || im.PollutedBefore != p.before || im.PollutedAfter != p.after {
			t.Errorf("%v %v: eligible/before/after = %d/%d/%d, pinned %d/%d/%d", sc, p.typ,
				im.Eligible, im.PollutedBefore, im.PollutedAfter, p.eligible, p.before, p.after)
		}
		if snap := c.Snapshot(); snap.BasePropagations != 1 || snap.FullPropagations != 1 || snap.DeltaPropagations != 0 {
			t.Errorf("%v %v: legs counted as %v, want 1 base + 1 full", sc, p.typ, snap)
		}
		borrowed, err := SimulateScratch(g, sc, im.Baseline(), s, nil)
		if err != nil {
			t.Fatalf("%v %v: SimulateScratch: %v", sc, p.typ, err)
		}
		if borrowed.Counts != im.Counts {
			t.Errorf("%v %v: SimulateScratch = %+v", sc, p.typ, borrowed.Counts)
		}
	}
}

func TestAttackTypeStrings(t *testing.T) {
	for _, typ := range []AttackType{AttackASPP, AttackOriginHijack, AttackNextHopInterception} {
		if s := typ.String(); s == "" || s[0] == 'A' && s[1] == 't' {
			t.Errorf("missing name for %d: %q", typ, s)
		}
	}
	if (Scenario{}).Type != AttackASPP {
		t.Error("the zero Scenario is not an ASPP attack")
	}
}
