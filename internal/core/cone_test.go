package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// recount is the O(n) accounting SimulateScratch used to do on every leg,
// kept as the oracle for the cone-sized one: the via sets are read off the
// paths themselves — before the attack from the baseline, under it from a
// full-kernel propagation on a Scratch of its own — and every AS is visited.
func recount(t *testing.T, g *topology.Graph, sc Scenario, baseline *routing.Result, oracle *routing.Scratch) (Counts, []bgp.ASN) {
	t.Helper()
	attacked, err := routing.PropagateAttackScratch(g, sc.Announcement(), sc.AttackerConfig(), baseline, oracle)
	if err != nil {
		t.Fatalf("%v: oracle propagation: %v", sc, err)
	}
	var cnt Counts
	var newly []bgp.ASN
	for _, asn := range g.ASNs() {
		before := slices.Contains(baseline.PathOf(asn), sc.Attacker)
		after := slices.Contains(attacked.PathOf(asn), sc.Attacker)
		if after && !before {
			newly = append(newly, asn)
		}
		if asn == sc.Victim || asn == sc.Attacker || !baseline.Reachable(asn) {
			continue
		}
		cnt.Eligible++
		if before {
			cnt.PollutedBefore++
		}
		if after {
			cnt.PollutedAfter++
		}
	}
	slices.Sort(newly)
	return cnt, newly
}

func checkAgainstRecount(t *testing.T, g *topology.Graph, im *Impact, baseline *routing.Result, oracle *routing.Scratch, label string) {
	t.Helper()
	want, newly := recount(t, g, im.Scenario, baseline, oracle)
	if im.Counts != want {
		t.Errorf("%s: counts %+v, O(n) recount %+v (cone of %d, nil=%v)", label, im.Counts, want, len(im.cone), im.cone == nil)
	}
	if got := im.NewlyPolluted(); !slices.Equal(got, newly) {
		t.Errorf("%s: NewlyPolluted %v, O(n) recount %v", label, got, newly)
	}
	if im.Effective() != (len(newly) > 0) {
		t.Errorf("%s: Effective=%v with %d newly polluted", label, im.Effective(), len(newly))
	}
}

// TestConeAccountingDifferential: on the delta path SimulateScratch counts
// pollution, Effective and NewlyPolluted over the attacker's cone alone;
// every answer must equal the O(n) recount. Over 1,000 legs on generated
// graphs — follow and violate, λ 1..8, KeepPrepend 1..2 — run the way a
// shard runs them: one Scratch throughout, standalone baselines, one of them
// shifted in place from another λ, consecutive legs on the
// same baseline (the delta slot's repair path) and on alternating ones,
// forged full-kernel legs and nil-Scratch legs in between. A nil-Scratch
// leg runs on a fresh private Scratch and is cone-counted like the rest.
func TestConeAccountingDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1902))
	s, oracle := routing.NewScratch(), routing.NewScratch()
	legs, coneLegs, emptyCones, sameBase := 0, 0, 0, 0
	for trial := 0; legs < 1100; trial++ {
		cfg := topology.DefaultGenConfig(40 + rng.Intn(160))
		cfg.Tier1 = 3 + rng.Intn(4)
		cfg.Seed = rng.Int63()
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		asns := g.ASNs()
		// Three baselines: two λ of one victim (one a shift of the other)
		// and another victim's.
		v1, v2 := asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]
		l1, l2, l3 := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		b1, err := routing.Propagate(g, routing.Announcement{Origin: v1, Prepend: l1})
		if err != nil {
			t.Fatal(err)
		}
		b2, err := routing.Propagate(g, routing.Announcement{Origin: v1, Prepend: l1})
		if err != nil {
			t.Fatal(err)
		}
		b2.Shift(l2 - l1)
		b3, err := routing.Propagate(g, routing.Announcement{Origin: v2, Prepend: l3})
		if err != nil {
			t.Fatal(err)
		}
		type cached struct {
			base   *routing.Result
			victim bgp.ASN
			lambda int
		}
		bases := []cached{{b1, v1, l1}, {b2, v1, l2}, {b3, v2, l3}}
		cur := 0
		var prev *routing.Result
		for leg := 0; leg < 14; leg++ {
			if rng.Intn(3) == 0 {
				cur = rng.Intn(len(bases))
			}
			b := bases[cur]
			sc := Scenario{
				Victim: b.victim, Attacker: asns[rng.Intn(len(asns))], Prepend: b.lambda,
				KeepPrepend: 1 + rng.Intn(2), ViolateValleyFree: rng.Intn(2) == 0,
			}
			if sc.Attacker == sc.Victim {
				continue
			}
			if leg%5 == 4 {
				sc.Type = AttackType(1 + rng.Intn(2)) // a forged leg: the full kernel, every AS counted
			}
			scratch := s
			if leg%7 == 6 {
				scratch = nil
			}
			label := fmt.Sprintf("trial %d leg %d (n=%d, %v keep=%d type=%v)", trial, leg, len(asns), sc, sc.KeepPrepend, sc.Type)
			im, err := SimulateScratch(g, sc, b.base, scratch, nil)
			if errors.Is(err, ErrAttackerSeesNoRoute) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if wantCone := sc.Type == AttackASPP; (im.cone != nil) != wantCone {
				t.Fatalf("%s: cone nil=%v, want a cone exactly on the delta engine's legs", label, im.cone == nil)
			}
			checkAgainstRecount(t, g, &im, b.base, oracle, label)
			legs++
			if im.cone != nil {
				coneLegs++
				if len(im.cone) == 0 {
					emptyCones++
				}
				if prev == b.base {
					sameBase++
				}
				prev = b.base
			}
			if t.Failed() {
				t.Fatalf("%s: stopping after first failing leg", label)
			}
		}
	}
	if coneLegs < 700 || emptyCones < 5 || sameBase < 100 || sameBase > coneLegs-100 {
		t.Fatalf("%d legs: %d cone-sized, %d with an empty cone, %d on the previous leg's baseline; want all of them exercised", legs, coneLegs, emptyCones, sameBase)
	}
	t.Logf("%d legs, %d cone-sized (%d empty cones, %d on the previous leg's baseline)", legs, coneLegs, emptyCones, sameBase)
}

// TestConeAccountingAttackReachesUnreachable: a violating attacker can hand
// the route to ASes that had none. They are in its cone and newly polluted,
// but never eligible — exactly as the whole-graph count had it.
func TestConeAccountingAttackReachesUnreachable(t *testing.T) {
	b := topology.NewBuilder()
	for _, l := range [][2]bgp.ASN{{1, 10}, {1, 20}, {10, 100}, {20, 200}, {900, 901}} {
		if err := b.AddP2C(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	// 900 hears from 100 over a peer link only, so never 200's prefix, which
	// 100 learned from its provider — until 100 violates export policy.
	if err := b.AddP2P(100, 900); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := routing.NewScratch()
	base, err := routing.Propagate(g, routing.Announcement{Origin: 200, Prepend: 3})
	if err != nil {
		t.Fatal(err)
	}
	if base.Reachable(900) || base.Reachable(901) {
		t.Fatal("900 and 901 must not hear the prefix before the attack")
	}
	im, err := SimulateScratch(g, Scenario{Victim: 200, Attacker: 100, Prepend: 3, ViolateValleyFree: true}, base, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstRecount(t, g, &im, base, routing.NewScratch(), "violating 100")
	if want := (Counts{Eligible: 3}); im.Counts != want || !slices.Equal(im.NewlyPolluted(), []bgp.ASN{900, 901}) || im.cone == nil {
		t.Fatalf("counts %+v newly %v, want %+v and [900 901] read over a cone", im.Counts, im.NewlyPolluted(), want)
	}
}
