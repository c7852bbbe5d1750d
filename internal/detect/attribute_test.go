package detect

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/routing"
)

// attributionCase names a short list of monitors built around one trigger of
// one attack, the shape of one way Fold can decide Attributed.
type attributionCase struct {
	kind string
	im   *core.Impact
	list []bgp.ASN
}

// The kinds TestFoldAttributionDifferential requires, each at least once.
const (
	// A High alarm names the attacker only through a witness that holds the
	// AS below it (b) and not the attacker: the witness is listed first, so
	// a candidate walk starting at the trigger's own cut misses it.
	caseAroundAttacker = "witness routes through b, not the attacker"
	// The trigger's next hop is the attacker, and only a hint names it.
	caseHintOnly = "next hop is the attacker, only a hint names it"
	// The attacker is a monitor, and its own route names it.
	caseAttackerMonitor = "the attacker is the witness"
	// The attacker is the origin's neighbour on the trigger's chain (m = 0).
	caseNextToOrigin = "attacker adjacent to the origin"
	// A per-neighbour λ makes a route that avoids the attacker trigger.
	caseAvoidsAttacker = "per-neighbour-λ trigger avoids the attacker"
)

// attributionCases draws attacks on small generated graphs — uniform, with
// the attacker a neighbour of the victim, with per-neighbour λ — and returns
// up to three lists per kind. Each list puts one trigger t among at most two
// fillers, ASes drawn at random that trigger nothing, so the verdicts follow
// from t's pairs.
func attributionCases(t *testing.T) []attributionCase {
	t.Helper()
	sc := NewEvalScratch()
	found := map[string]int{}
	var out []attributionCase
	add := func(kind string, im *core.Impact, list ...bgp.ASN) {
		if found[kind] < 3 {
			found[kind]++
			out = append(out, attributionCase{kind, im, list})
		}
	}
	for seed := int64(1); seed <= 4 && len(found) < 5; seed++ {
		g := diffTestGraph(t, 300, seed)
		asns := g.ASNs()
		rng := rand.New(rand.NewSource(seed + 46))
		for k := 0; k < 300; k++ {
			v, m := asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]
			var per map[bgp.ASN]int
			switch k % 3 {
			case 1:
				if nb := slices.Concat(neighborASNs(g, v, g.ProvidersIdx), neighborASNs(g, v, g.PeersIdx)); len(nb) > 0 {
					m = nb[rng.Intn(len(nb))]
				}
			case 2:
				per = map[bgp.ASN]int{}
				for _, span := range []func(int32) []int32{g.ProvidersIdx, g.PeersIdx, g.CustomersIdx} {
					for _, n := range neighborASNs(g, v, span) {
						per[n] = 1 + rng.Intn(8)
					}
				}
			}
			if v == m {
				continue
			}
			im, err := core.Simulate(g, core.Scenario{Victim: v, Attacker: m, Prepend: 1 + rng.Intn(6), PerNeighborPrepend: per, ViolateValleyFree: k%2 == 0})
			if errors.Is(err, routing.ErrUnreachableAttacker) || errors.Is(err, core.ErrAttackerSeesNoRoute) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			sc.Extract(im, asns)
			trig := func(a int) bool { return triggers(sc.wasAt(sc.monIdx[a]), sc.atkSpans[a]) }
			names := func(a, b int, rels RelQuerier, c Confidence) bool {
				return slices.ContainsFunc(rowAlarms(sc.arena, []bgp.ASN{asns[a], asns[b]}, []int32{int32(a), int32(b)},
					sc.atkSpans, 0, sc.wasAt(sc.monIdx[a]), rels, nil), func(x Alarm) bool { return x.Suspect == m && x.Confidence == c })
			}
			var quiet []int // non-triggers: fillers
			for a := range asns {
				if !trig(a) {
					quiet = append(quiet, a)
				}
			}
			filler := func() bgp.ASN { return asns[quiet[rng.Intn(len(quiet))]] }
			atkSlot := slices.Index(asns, m)
			for tr := range asns {
				if !trig(tr) {
					continue
				}
				pos, curT := sc.attackerAt(tr), sc.arena.SegBody(sc.atkSpans[tr].Seg)
				switch {
				case pos < 0 && per != nil:
					add(caseAvoidsAttacker, im, filler(), asns[tr], filler())
				case pos == 0 && len(curT) > 0:
					add(caseNextToOrigin, im, asns[tr], filler(), m)
				case pos > 0 && pos < len(curT)-1:
					if names(tr, atkSlot, nil, High) {
						add(caseAttackerMonitor, im, filler(), asns[tr], m)
					}
					for w := range asns {
						if w != atkSlot && sc.atkSpans[w].Prep != 0 && !slices.Contains(sc.arena.SegBody(sc.atkSpans[w].Seg), m) && names(tr, w, nil, High) {
							add(caseAroundAttacker, im, asns[w], filler(), asns[tr], filler())
							break
						}
					}
				case pos > 0 && pos == len(curT)-1:
					for w := range asns {
						if names(tr, w, g, Possible) && !names(tr, w, g, High) {
							add(caseHintOnly, im, filler(), asns[tr], asns[w])
							break
						}
					}
				}
			}
		}
	}
	for _, kind := range []string{caseAroundAttacker, caseHintOnly, caseAttackerMonitor, caseNextToOrigin, caseAvoidsAttacker} {
		if found[kind] == 0 {
			t.Fatalf("premise broken: no attack holds the case %q", kind)
		}
	}
	return out
}

// TestFoldAttributionDifferential holds Fold's Attributed, which it asks of
// candidate witnesses only, to the frozen reference: on each case list, under
// the ground-truth graph and with no relationships, every end of a many-end
// pass from lo = 0 and from lo = 1 and six random windows give the verdict
// and latency legacyEvaluate gives on that window alone. The lists of a
// witness that routes around the attacker name the attacker on the whole list
// and not without that witness, which Fold only sees by walking the
// candidates from lo; a hint-only list names it under the graph and not
// without it. After every Fold no candidate routes through the attacker,
// unless the trigger is the attacker itself.
func TestFoldAttributionDifferential(t *testing.T) {
	cases := attributionCases(t)
	rng := rand.New(rand.NewSource(47))
	sc := NewEvalScratch()
	res, hops := make([]EvalResult, 4), make([]int, 4)
	for ci, c := range cases {
		g := c.im.Attacked().Graph()
		switch c.kind {
		case caseAroundAttacker:
			if !legacyEvaluate(c.im, c.list, nil).Attributed || legacyEvaluate(c.im, c.list[1:], nil).Attributed {
				t.Fatalf("case %d (%s, %v): premise broken: the first witness does not decide Attributed", ci, c.kind, c.list)
			}
		case caseHintOnly:
			if !legacyEvaluate(c.im, c.list, g).Attributed || legacyEvaluate(c.im, c.list, nil).Attributed {
				t.Fatalf("case %d (%s, %v): premise broken: the hint does not decide Attributed", ci, c.kind, c.list)
			}
		}
		n := len(c.list)
		sc.Extract(c.im, c.list)
		check := func(rels RelQuerier, lo int, ends []int) {
			sc.Fold(lo, ends, rels, res, hops)
			for j, d := range ends {
				got := res[j]
				got.PollutedBeforeDetection = sc.PollutedBefore(hops[j])
				if want := legacyEvaluate(c.im, c.list[lo:d], rels); got != want {
					t.Fatalf("case %d (%s, %v) rels %v lo %d ends %v window [%d,%d):\nfold   %+v\nlegacy %+v",
						ci, c.kind, c.list, rels != nil, lo, ends, lo, d, got, want)
				}
			}
			if sc.candPos > 0 && !sc.candWhole {
				for _, k := range sc.cand {
					if slices.Contains(sc.arena.SegBody(sc.atkSpans[k].Seg), c.im.Scenario.Attacker) {
						t.Fatalf("case %d (%s, %v): candidate %v routes through the attacker", ci, c.kind, c.list, c.list[k])
					}
				}
			}
		}
		for _, rels := range []RelQuerier{g, nil} {
			for _, lo := range []int{0, 1} {
				var every []int
				for d := lo + 1; d <= n; d++ {
					every = append(every, d)
				}
				check(rels, lo, every)
			}
			for w := 0; w < 6; w++ {
				lo := rng.Intn(n)
				check(rels, lo, []int{lo + 1 + rng.Intn(n-lo)})
			}
		}
	}
	t.Logf("%d case lists", len(cases))
}
