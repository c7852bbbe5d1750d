package routing

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// This file is the sibling slice of the differential suite: the full
// kernel against the message-level reference engine on generated graphs
// with grafted sibling links.

// graftSiblings adds 1–8 sibling links to g, mixing the three shapes that
// stress the kernel's pass loop: random pairs, links from an AS to one of
// its own provider ancestors (a provider cycle through the organization —
// the Fig. 11 shape victim ≻ … ≻ attacker ≻ sibling ~ victim), and chains
// a~b~c~d whose far end settles only after several passes. It returns the
// graph and the ASes that got a sibling.
func graftSiblings(t testing.TB, g *topology.Graph, rng *rand.Rand) (*topology.Graph, []bgp.ASN) {
	t.Helper()
	b := topology.Rebuild(g)
	asns := g.ASNs()
	pick := func() bgp.ASN { return asns[rng.Intn(len(asns))] }
	var orgs []bgp.ASN
	grafted := map[[2]bgp.ASN]bool{}
	link := func(x, y bgp.ASN) bool {
		if x == y || g.RelOf(x, y) != topology.RelNone || grafted[[2]bgp.ASN{x, y}] {
			return false
		}
		if err := b.AddS2S(x, y); err != nil {
			t.Fatalf("AddS2S(%v,%v): %v", x, y, err)
		}
		grafted[[2]bgp.ASN{x, y}], grafted[[2]bgp.ASN{y, x}] = true, true
		orgs = append(orgs, x, y)
		return true
	}
	want := 1 + rng.Intn(8)
	for added, tries := 0, 0; added < want && tries < 400; tries++ {
		switch rng.Intn(3) {
		case 0:
			if link(pick(), pick()) {
				added++
			}
		case 1:
			x := pick()
			y := x
			for hops := 2 + rng.Intn(3); hops > 0; hops-- {
				provs := g.Providers(y)
				if len(provs) == 0 {
					break
				}
				y = provs[rng.Intn(len(provs))]
			}
			if link(x, y) {
				added++
			}
		default:
			prev := pick()
			for k := 2 + rng.Intn(3); k > 0 && added < want; k-- {
				next := pick()
				if link(prev, next) {
					added++
					prev = next
				}
			}
		}
	}
	if len(orgs) == 0 {
		t.Fatal("no sibling link could be grafted")
	}
	out, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return out, orgs
}

// siblingScenario draws a graph with grafted sibling links and a scenario
// on it: λ ∈ 1..8, KeepPrepend 1..2, and — half of the time each — an
// origin or an attacker that has a sibling; per-neighbor λ and withheld
// sessions reach the origin's siblings as well as its providers.
func siblingScenario(t testing.TB, rng *rand.Rand) (*topology.Graph, Announcement, Attacker) {
	t.Helper()
	cfg := topology.DefaultGenConfig(40 + rng.Intn(160))
	cfg.Tier1 = 3 + rng.Intn(4)
	cfg.Seed = rng.Int63()
	plain, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return siblingScenarioOn(t, plain, rng)
}

// siblingScenarioOn is siblingScenario on a given sibling-free graph.
func siblingScenarioOn(t testing.TB, plain *topology.Graph, rng *rand.Rand) (*topology.Graph, Announcement, Attacker) {
	t.Helper()
	g, orgs := graftSiblings(t, plain, rng)
	ann, atk := scenarioOn(g, orgs, rng)
	return g, ann, atk
}

// scenarioOn draws a scenario on g: λ ∈ 1..8, KeepPrepend 1..2, sometimes
// per-neighbor λ or a withheld session on the origin's providers and
// siblings, and — half of the time each, when orgs is not empty — an origin
// or an attacker drawn from orgs.
func scenarioOn(g *topology.Graph, orgs []bgp.ASN, rng *rand.Rand) (Announcement, Attacker) {
	asns := g.ASNs()
	pick := func() bgp.ASN {
		if len(orgs) > 0 && rng.Intn(2) == 0 {
			return orgs[rng.Intn(len(orgs))]
		}
		return asns[rng.Intn(len(asns))]
	}
	victim := pick()
	attacker := victim
	for attacker == victim {
		attacker = pick()
	}
	ann := Announcement{Origin: victim, Prepend: 1 + rng.Intn(8)}
	nbrs := append(append([]bgp.ASN(nil), g.Providers(victim)...), neighborASNs(g, victim, g.SiblingsIdx)...)
	if rng.Intn(3) == 0 {
		ann.PerNeighbor = make(map[bgp.ASN]int)
		for _, nbr := range nbrs {
			if rng.Intn(2) == 0 {
				ann.PerNeighbor[nbr] = 1 + rng.Intn(8)
			}
		}
	}
	if rng.Intn(4) == 0 && len(nbrs) > 1 {
		withhold(&ann, nbrs[rng.Intn(len(nbrs))])
	}
	return ann, Attacker{AS: attacker, KeepPrepend: 1 + rng.Intn(2)}
}

// referenceOnConverged is PropagateReference with the attack launched on
// the converged no-attack state: the honest routes settle first, then the
// attacker starts stripping. That is the outcome the kernel computes — its
// attacker keeps the route it held before the attack — and PropagateReference,
// whose attacker strips from the first message on, usually lands there too.
// Not always: a strip that makes a route through the attacker attractive to
// an AS on the attacker's own path is a dispute wheel (each of the two
// prefers the route through the other), which sibling links make possible
// even for a valley-free attacker. Such a scenario has two stable states
// and the cold start may find the other one, or none.
func referenceOnConverged(g *topology.Graph, ann Announcement, atk Attacker) (*Result, error) {
	e, err := newRefEngine(g, ann, &atk)
	if err != nil {
		return nil, err
	}
	e.hasAtk = false
	e.announce()
	if err := e.drain(); err != nil {
		return nil, err
	}
	e.hasAtk = true
	e.exportFrom(e.atkIdx)
	if err := e.drain(); err != nil {
		return nil, err
	}
	return e.finish(), nil
}

// siblingLegs tallies the attack legs a differential ran and how many of
// them the cold-start PropagateReference matched row for row.
type siblingLegs struct{ ran, coldAgreed int }

// checkSiblingScenario runs baseline, follow and violate on s and compares
// every row: the baseline with PropagateReference, the attacks with
// referenceOnConverged, and holds every attack leg to checkStable. An
// attacker without a route has no attack leg: the kernel says so, the
// reference engine degrades to a no-op.
func checkSiblingScenario(t testing.TB, g *topology.Graph, ann Announcement, atk Attacker, s *Scratch, label string, legs *siblingLegs) {
	t.Helper()
	base, err := PropagateScratch(g, ann, s)
	if err != nil {
		t.Fatalf("%s: PropagateScratch: %v", label, err)
	}
	want, err := PropagateReference(g, ann, nil)
	if err != nil {
		t.Fatalf("%s: reference baseline: %v", label, err)
	}
	compareResults(t, g, base, want, label+" baseline")
	for _, violate := range []bool{false, true} {
		atk.ViolateValleyFree = violate
		// nil baseline on the violate leg: the kernel recomputes it into the
		// baseline slot, the other way callers pair the two calls.
		legBase := base
		if violate {
			legBase = nil
		}
		got, err := PropagateAttackScratch(g, ann, atk, legBase, s)
		if !want.Reachable(atk.AS) {
			if !errors.Is(err, ErrUnreachableAttacker) {
				t.Fatalf("%s: unreachable attacker: err = %v, want ErrUnreachableAttacker", label, err)
			}
			continue
		}
		leg := fmt.Sprintf("%s violate=%v", label, violate)
		if err != nil {
			t.Fatalf("%s: PropagateAttackScratch: %v", leg, err)
		}
		ref, err := referenceOnConverged(g, ann, atk)
		if err != nil {
			t.Fatalf("%s: reference on converged state: %v", leg, err)
		}
		compareResults(t, g, got, ref, leg)
		checkStable(t, g, got, ann, &atk, nil)
		legs.ran++
		if cold, err := PropagateReference(g, ann, &atk); err == nil && rowsEqual(cold, ref) {
			legs.coldAgreed++
		}
	}
}

func rowsEqual(a, b *Result) bool {
	for i := range a.Class {
		if a.Class[i] != b.Class[i] || a.Len[i] != b.Len[i] || a.Prep[i] != b.Prep[i] ||
			a.Parent[i] != b.Parent[i] || a.Via[i] != b.Via[i] {
			return false
		}
	}
	return true
}

// TestSiblingDifferential: ≥500 scenarios on generated graphs with 1–8
// grafted sibling links, baseline plus follow and violate attack, all on
// one reused Scratch; every Class/Len/Prep/Parent/Via row must equal the
// reference engine's. The cold-start reference must agree on nearly every
// attack leg too (see referenceOnConverged for the rest).
func TestSiblingDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1107))
	s := NewScratch()
	var legs siblingLegs
	const trials = 560
	for trial := 0; trial < trials; trial++ {
		g, ann, atk := siblingScenario(t, rng)
		label := fmt.Sprintf("trial %d (n=%d V=%v M=%v λ=%d keep=%d)", trial, g.NumASes(), ann.Origin, atk.AS, ann.Prepend, atk.KeepPrepend)
		checkSiblingScenario(t, g, ann, atk, s, label, &legs)
		if t.Failed() {
			t.Fatalf("%s: stopping after first failing trial", label)
		}
	}
	if legs.ran < 500 {
		t.Fatalf("%d attack legs exercised in %d scenarios; want >= 500", legs.ran, trials)
	}
	if legs.coldAgreed*100 < legs.ran*95 {
		t.Errorf("cold-start reference agrees on %d of %d attack legs; want >= 95%%", legs.coldAgreed, legs.ran)
	}
	t.Logf("%d scenarios, %d attack legs, cold-start reference agrees on %d", trials, legs.ran, legs.coldAgreed)
}

// buildLinks feeds p2c and s2s links into a fresh Builder and builds it.
func buildLinks(t testing.TB, p2c, s2s [][2]bgp.ASN) *topology.Graph {
	t.Helper()
	b := topology.NewBuilder()
	for _, e := range p2c {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range s2s {
		if err := b.AddS2S(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSiblingReofferAtEqualLength: a sibling that re-announces replaces
// its earlier offer even when class, length and prepends are all equal.
//
//	U(50) ~~~ S(60)      S hears the prefix only from its sibling U
//	 |  \
//	X(20) Y(30)          U's customers: equal-length routes, X wins on ASN
//	 ~     |
//	A(10) B(40)          A ~ X siblings; A is the attacker
//	  \   /
//	  V(70)              λ = 1: stripping changes no length
//
// U's route via Y exists from the first pass, the one via X only once A's
// offer has crossed to X — same class, length and prepends, but through
// the attacker. U's offer to S changes in the via flag alone, and S's Via
// row is wrong if that does not count as a change.
func TestSiblingReofferAtEqualLength(t *testing.T) {
	g := buildLinks(t,
		[][2]bgp.ASN{{10, 70}, {40, 70}, {30, 40}, {50, 20}, {50, 30}},
		[][2]bgp.ASN{{10, 20}, {50, 60}})
	ann := Announcement{Origin: 70, Prepend: 1}
	atk := Attacker{AS: 10}
	got, err := PropagateAttackScratch(g, ann, atk, nil, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	want, err := PropagateReference(g, ann, &atk)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, g, got, want, "re-offer")
	for _, asn := range []bgp.ASN{20, 50, 60} {
		if !got.Via[mustIdx(t, g, asn)] {
			t.Errorf("AS %v does not route via the attacker; path %v", asn, got.PathOf(asn))
		}
	}
	if got, want := got.PathOf(60).String(), "50 20 10 70"; got != want {
		t.Errorf("S's path = %q, want %q", got, want)
	}
}

// siblingChain is V(1) ≺ H(2) plus a chain of k siblings H ~ 3 ~ 4 ~ …:
// each pass carries the prefix one sibling further.
func siblingChain(t testing.TB, k int) *topology.Graph {
	var s2s [][2]bgp.ASN
	for i := 0; i < k; i++ {
		s2s = append(s2s, [2]bgp.ASN{bgp.ASN(2 + i), bgp.ASN(3 + i)})
	}
	return buildLinks(t, [][2]bgp.ASN{{2, 1}}, s2s)
}

// TestSiblingChains: a chain of siblings needs a pass per link and still
// lands on the reference engine's routes; past the pass cap the kernel
// returns ErrSiblingsUnsettled instead of spinning or answering early.
func TestSiblingChains(t *testing.T) {
	ann := Announcement{Origin: 1, Prepend: 2}
	s := NewScratch()
	for _, k := range []int{3, 12, maxSiblingPasses - 2} {
		g := siblingChain(t, k)
		got, err := PropagateScratch(g, ann, s)
		if err != nil {
			t.Fatalf("chain of %d: %v", k, err)
		}
		want, err := PropagateReference(g, ann, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, g, got, want, fmt.Sprintf("chain of %d", k))
		if far := got.Len[mustIdx(t, g, bgp.ASN(2+k))]; far != int32(2+k) {
			t.Errorf("chain of %d: far end has length %d, want %d", k, far, 2+k)
		}
	}
	g := siblingChain(t, maxSiblingPasses+2)
	if _, err := PropagateScratch(g, ann, s); !errors.Is(err, ErrSiblingsUnsettled) {
		t.Errorf("chain past the cap: err = %v, want ErrSiblingsUnsettled", err)
	}
	if _, err := PropagateAttackScratch(g, ann, Attacker{AS: 2}, nil, s); !errors.Is(err, ErrSiblingsUnsettled) {
		t.Errorf("attack on a chain past the cap: err = %v, want ErrSiblingsUnsettled", err)
	}
}

// FuzzSiblingPropagate: a fuzzed graph with grafted sibling links, a
// fuzzed victim, attacker and λ, follow and violate. The kernel must not
// panic, must equal the reference engine on every row and must pass
// checkStable on every attack leg. The checked-in
// corpus (testdata/fuzz/FuzzSiblingPropagate) holds scenarios whose
// cold-start reference lands elsewhere or oscillates. Wired into
// `make fuzz-smoke`.
func FuzzSiblingPropagate(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(3))
	f.Add(int64(1107), uint8(140), uint8(8))
	f.Add(int64(-77), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, size, lambda uint8) {
		rng := rand.New(rand.NewSource(seed))
		cfg := topology.DefaultGenConfig(40 + int(size)%160)
		cfg.Tier1 = 3 + rng.Intn(4)
		cfg.Seed = rng.Int63()
		plain, err := topology.Generate(cfg)
		if err != nil {
			t.Skip(err)
		}
		g, ann, atk := siblingScenarioOn(t, plain, rng)
		ann.Prepend = 1 + int(lambda)%8
		var legs siblingLegs
		checkSiblingScenario(t, g, ann, atk, NewScratch(), fmt.Sprintf("seed %d size %d λ=%d", seed, size, ann.Prepend), &legs)
	})
}
