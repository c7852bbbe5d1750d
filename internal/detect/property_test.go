package detect

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// TestNoHighConfidenceFalsePositivesOnLegitimateTE is the detector's
// core soundness property: when an origin changes its per-neighbor
// prepending policy arbitrarily — any λ mix before, any λ mix after, with
// no attacker anywhere — the high-confidence rule must stay silent.
//
// Why it holds: at any instant, every route entering the origin through
// neighbor n carries exactly λ(n) origin copies; two routes sharing a
// transit suffix share their entry neighbor and therefore their pads, so
// the "same segment, fewer pads" conflict cannot arise without someone
// rewriting a path. Lower-confidence hints may fire (the paper accepts
// their false positives); High must not.
func TestNoHighConfidenceFalsePositivesOnLegitimateTE(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	hintFP := 0
	trials := 0
	for trial := 0; trial < 30; trial++ {
		cfg := topology.DefaultGenConfig(80 + rng.Intn(120))
		cfg.Tier1 = 3 + rng.Intn(3)
		cfg.Seed = rng.Int63()
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		asns := g.ASNs()
		origin := asns[rng.Intn(len(asns))]
		neighbors := append(append(append([]bgp.ASN(nil),
			g.Providers(origin)...), g.Peers(origin)...), neighborASNs(g, origin, g.CustomersIdx)...)
		if len(neighbors) == 0 {
			continue
		}
		randomPolicy := func() routing.Announcement {
			ann := routing.Announcement{Origin: origin, Prepend: 1 + rng.Intn(5)}
			ann.PerNeighbor = make(map[bgp.ASN]int)
			for _, n := range neighbors {
				if rng.Intn(2) == 0 {
					ann.PerNeighbor[n] = 1 + rng.Intn(6)
				}
			}
			return ann
		}
		before, err := routing.Propagate(g, randomPolicy())
		if err != nil {
			t.Fatal(err)
		}
		after, err := routing.Propagate(g, randomPolicy())
		if err != nil {
			t.Fatal(err)
		}

		monitors := g.TopByDegree(30 + rng.Intn(60))
		witnesses := make([]MonitorRoute, 0, len(monitors))
		for _, m := range monitors {
			if p := after.PathOf(m); p != nil {
				witnesses = append(witnesses, MonitorRoute{Monitor: m, Path: p})
			}
		}
		trials++
		for _, m := range monitors {
			prev, cur := before.PathOf(m), after.PathOf(m)
			if prev == nil || cur == nil {
				continue
			}
			for _, a := range DetectChange(m, prev, cur, witnesses, g) {
				if a.Confidence == High {
					t.Fatalf("trial %d: high-confidence false positive on legitimate TE: %v\n  prev=%v\n  cur=%v",
						trial, a, prev, cur)
				}
				hintFP++
			}
		}
	}
	if trials < 20 {
		t.Fatalf("only %d usable trials", trials)
	}
	// Informational: the hint rules trade recall for false positives.
	t.Logf("hint-level (Possible) false positives across %d trials: %d", trials, hintFP)
}

// TestOwnerPolicyNoFalsePositives: the owner-side check must stay silent
// on any honest routing state whose policy the owner reports truthfully.
func TestOwnerPolicyNoFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 25; trial++ {
		cfg := topology.DefaultGenConfig(80 + rng.Intn(120))
		cfg.Seed = rng.Int63()
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		asns := g.ASNs()
		origin := asns[rng.Intn(len(asns))]
		ann := routing.Announcement{Origin: origin, Prepend: 1 + rng.Intn(5)}
		ann.PerNeighbor = make(map[bgp.ASN]int)
		for _, n := range g.Providers(origin) {
			if rng.Intn(2) == 0 {
				ann.PerNeighbor[n] = 1 + rng.Intn(6)
			}
		}
		res, err := routing.Propagate(g, ann)
		if err != nil {
			t.Fatal(err)
		}
		var routes []MonitorRoute
		for _, m := range g.TopByDegree(50) {
			if p := res.PathOf(m); p != nil {
				routes = append(routes, MonitorRoute{Monitor: m, Path: p})
			}
		}
		lambdaFor := func(n bgp.ASN) int {
			if g.RelOf(origin, n) == topology.RelNone {
				return 0
			}
			if v, ok := ann.PerNeighbor[n]; ok {
				return v
			}
			return ann.Prepend
		}
		if alarms := DetectOwnPolicy(origin, lambdaFor, routes); len(alarms) != 0 {
			t.Fatalf("trial %d (origin %v): owner-policy false positives: %v",
				trial, origin, alarms)
		}
	}
}

// TestDetectChangeAlwaysFindsEffectiveStrip: completeness on the hand
// graph family — whenever an attack changes some monitor's route, a
// sufficiently placed monitor pair detects it at high confidence.
func TestDetectChangeAlwaysFindsEffectiveStrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	detected, effective := 0, 0
	for trial := 0; trial < 25; trial++ {
		cfg := topology.DefaultGenConfig(100 + rng.Intn(100))
		cfg.Seed = rng.Int63()
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		asns := g.ASNs()
		victim := asns[rng.Intn(len(asns))]
		attacker := victim
		for attacker == victim {
			attacker = asns[rng.Intn(len(asns))]
		}
		ann := routing.Announcement{Origin: victim, Prepend: 3}
		base, err := routing.Propagate(g, ann)
		if err != nil {
			t.Fatal(err)
		}
		res, err := routing.PropagateAttackScratch(g, ann, routing.Attacker{AS: attacker, ViolateValleyFree: true}, base, nil)
		if err != nil {
			continue
		}
		if !slices.Contains(res.Via, true) {
			continue
		}
		effective++
		// Monitor everywhere: with full visibility, detection must work
		// unless the attacker neighbors the victim directly (§V-B).
		monitors := g.ASNs()
		witnesses := make([]MonitorRoute, 0, len(monitors))
		for _, m := range monitors {
			if p := res.PathOf(m); p != nil {
				witnesses = append(witnesses, MonitorRoute{Monitor: m, Path: p})
			}
		}
		found := false
		for _, m := range monitors {
			prev, cur := base.PathOf(m), res.PathOf(m)
			if prev == nil || cur == nil {
				continue
			}
			for _, a := range DetectChange(m, prev, cur, witnesses, g) {
				if a.Confidence == High {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		isNeighbor := g.RelOf(victim, attacker) != topology.RelNone
		if !found && !isNeighbor {
			t.Errorf("trial %d: effective non-neighbor attack (V=%v M=%v) undetected with full visibility",
				trial, victim, attacker)
		}
		if found {
			detected++
		}
	}
	if effective < 10 {
		t.Skipf("only %d effective attacks", effective)
	}
	t.Log(fmt.Sprintf("detected %d of %d effective attacks with full visibility", detected, effective))
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
