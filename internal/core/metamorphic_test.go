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

// Metamorphic properties of the attack model: relations that must hold
// between the outcomes of *related* scenarios, without knowing any single
// scenario's ground truth. They complement the engine differential suite
// (internal/routing) — that pins engines against each other, these pin the
// model against itself.

func metamorphicGraph(t testing.TB, n int, seed int64) *topology.Graph {
	t.Helper()
	cfg := topology.DefaultGenConfig(n)
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// metamorphicPairs picks a deterministic mix of victim/attacker pairs:
// core-vs-core, core-vs-edge both ways, and edge-vs-edge.
func metamorphicPairs(t testing.TB, g *topology.Graph) [][2]bgp.ASN {
	t.Helper()
	t1 := g.Tier1s()
	if len(t1) < 2 {
		t.Fatal("graph has fewer than two tier-1 ASes")
	}
	var stubs []bgp.ASN
	for _, asn := range g.ASNs() {
		if g.IsStub(asn) && g.Tier(asn) > 1 && len(g.Providers(asn)) >= 2 {
			stubs = append(stubs, asn)
			if len(stubs) == 2 {
				break
			}
		}
	}
	if len(stubs) < 2 {
		t.Fatal("graph has fewer than two multihomed stubs")
	}
	return [][2]bgp.ASN{
		{t1[0], t1[1]},
		{t1[1], t1[0]},
		{t1[0], stubs[0]},
		{stubs[0], t1[0]},
		{stubs[0], stubs[1]},
	}
}

// TestPollutionMonotoneInLambda: more prepending can only help the
// attacker. The stripped route's length is independent of λ (the attacker
// always cuts back to KeepPrepend) while every legitimate route grows with
// λ, so the polluted count must be non-decreasing in λ.
func TestPollutionMonotoneInLambda(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		g := metamorphicGraph(t, 150, seed)
		for _, pair := range metamorphicPairs(t, g) {
			for _, violate := range []bool{false, true} {
				prev := -1
				for lam := 1; lam <= 8; lam++ {
					im, err := Simulate(g, Scenario{
						Victim: pair[0], Attacker: pair[1],
						Prepend: lam, ViolateValleyFree: violate,
					})
					if errors.Is(err, ErrAttackerSeesNoRoute) {
						break // reachability is λ-independent: skip the pair
					}
					if err != nil {
						t.Fatal(err)
					}
					if im.PollutedAfter < prev {
						t.Errorf("seed %d, %v hijacks %v (violate=%v): pollution dropped %d -> %d at λ=%d",
							seed, pair[1], pair[0], violate, prev, im.PollutedAfter, lam)
					}
					prev = im.PollutedAfter
				}
			}
		}
	}
}

// TestRelabelInvariance: routing depends on ASNs only through the
// lowest-next-hop tie-break, so any order-preserving relabeling of the
// ASes must leave every pollution count — and the polluted set itself,
// up to the relabeling — unchanged.
func TestRelabelInvariance(t *testing.T) {
	g := metamorphicGraph(t, 150, 7)
	relabel := func(a bgp.ASN) bgp.ASN { return a*10 + 5 } // strictly increasing
	b := topology.NewBuilder()
	for _, asn := range g.ASNs() {
		if err := b.AddAS(relabel(asn)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); i < int32(g.NumASes()); i++ {
		a := relabel(g.ASNAt(i))
		for _, j := range g.CustomersIdx(i) {
			if err := b.AddP2C(a, relabel(g.ASNAt(j))); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range g.PeersIdx(i) {
			if j > i {
				if err := b.AddP2P(a, relabel(g.ASNAt(j))); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, j := range g.SiblingsIdx(i) {
			if j > i {
				if err := b.AddS2S(a, relabel(g.ASNAt(j))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	for _, pair := range metamorphicPairs(t, g) {
		for _, lam := range []int{1, 3, 5} {
			for _, violate := range []bool{false, true} {
				sc := Scenario{Victim: pair[0], Attacker: pair[1], Prepend: lam, ViolateValleyFree: violate}
				rsc := Scenario{Victim: relabel(pair[0]), Attacker: relabel(pair[1]), Prepend: lam, ViolateValleyFree: violate}
				im, err := Simulate(g, sc)
				rim, rerr := Simulate(rg, rsc)
				if errors.Is(err, ErrAttackerSeesNoRoute) || errors.Is(rerr, ErrAttackerSeesNoRoute) {
					if !errors.Is(err, ErrAttackerSeesNoRoute) || !errors.Is(rerr, ErrAttackerSeesNoRoute) {
						t.Fatalf("%v: reachability differs under relabeling: %v vs %v", sc, err, rerr)
					}
					continue
				}
				if err != nil || rerr != nil {
					t.Fatal(err, rerr)
				}
				if im.Eligible != rim.Eligible || im.PollutedBefore != rim.PollutedBefore || im.PollutedAfter != rim.PollutedAfter {
					t.Errorf("%v: counts differ under relabeling: (%d,%d,%d) vs (%d,%d,%d)",
						sc, im.Eligible, im.PollutedBefore, im.PollutedAfter,
						rim.Eligible, rim.PollutedBefore, rim.PollutedAfter)
					continue
				}
				want := im.PollutedASes()
				got := rim.PollutedASes()
				if len(want) != len(got) {
					t.Errorf("%v: polluted-set size differs: %d vs %d", sc, len(want), len(got))
					continue
				}
				for i := range want {
					if relabel(want[i]) != got[i] {
						t.Errorf("%v: polluted set differs at %d: %v relabels to %v, got %v",
							sc, i, want[i], relabel(want[i]), got[i])
						break
					}
				}
			}
		}
	}
}

// TestLambdaOneAttackIsBaseline: at λ=1 with the default KeepPrepend=1 a
// rule-following attacker has nothing to strip — its "bogus" route is its
// real route, so the attack must be a per-AS no-op against the baseline.
func TestLambdaOneAttackIsBaseline(t *testing.T) {
	g := metamorphicGraph(t, 150, 5)
	for _, pair := range metamorphicPairs(t, g) {
		im, err := Simulate(g, Scenario{Victim: pair[0], Attacker: pair[1], Prepend: 1})
		if errors.Is(err, ErrAttackerSeesNoRoute) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%v hijacks %v", pair[1], pair[0])
		base, atk := im.Baseline(), im.Attacked()
		for i := 0; i < g.NumASes(); i++ {
			if base.Class[i] != atk.Class[i] || base.Len[i] != atk.Len[i] ||
				base.Prep[i] != atk.Prep[i] || base.Parent[i] != atk.Parent[i] {
				t.Fatalf("%s: AS %v routes differ at λ=1: class %v/%v len %d/%d prep %d/%d parent %d/%d",
					label, g.ASNAt(int32(i)),
					base.Class[i], atk.Class[i], base.Len[i], atk.Len[i],
					base.Prep[i], atk.Prep[i], base.Parent[i], atk.Parent[i])
			}
		}
		if im.PollutedAfter != im.PollutedBefore {
			t.Errorf("%s: λ=1 changed pollution %d -> %d", label, im.PollutedBefore, im.PollutedAfter)
		}
		if len(im.NewlyPolluted()) != 0 {
			t.Errorf("%s: λ=1 newly polluted %v, want none", label, im.NewlyPolluted())
		}
	}
}

// TestSimulateScratchIsSimulateBorrowed: the scratch path lends out the
// very Impact Simulate allocates — counts, both routing outcomes row for
// row, the pollution sets — for every attack family, on one reused Scratch
// so a stale row from the previous leg would show. Effective is
// len(NewlyPolluted()) > 0 without the allocation, and the sample holds
// both answers.
func TestSimulateScratchIsSimulateBorrowed(t *testing.T) {
	g := metamorphicGraph(t, 400, 9)
	rng := rand.New(rand.NewSource(9))
	asns := g.ASNs()
	s := routing.NewScratch()
	effective := map[bool]int{}
	for trial := 0; trial < 120; trial++ {
		sc := Scenario{
			Victim: asns[rng.Intn(len(asns))], Attacker: asns[rng.Intn(len(asns))],
			Prepend: 1 + rng.Intn(4), ViolateValleyFree: rng.Intn(2) == 0,
			Type: AttackType(trial % 3),
		}
		want, err := Simulate(g, sc)
		borrowed, berr := SimulateScratch(g, sc, nil, s, nil)
		if (err == nil) != (berr == nil) {
			t.Fatalf("%v: Simulate err=%v, SimulateScratch err=%v", sc, err, berr)
		}
		if err != nil {
			continue
		}
		if borrowed.Counts != want.Counts || borrowed.Before() != want.Before() || borrowed.After() != want.After() {
			t.Errorf("%v: borrowed counts %+v, Simulate %+v", sc, borrowed.Counts, want.Counts)
		}
		if !slices.Equal(borrowed.NewlyPolluted(), want.NewlyPolluted()) || !slices.Equal(borrowed.PollutedASes(), want.PollutedASes()) {
			t.Errorf("%v: borrowed pollution sets differ from Simulate's", sc)
		}
		for _, asn := range asns {
			wb, wa := want.PathsAt(asn)
			if gb, ga := borrowed.PathsAt(asn); !gb.Equal(wb) || !ga.Equal(wa) {
				t.Fatalf("%v: AS %v borrowed paths %v / %v, Simulate %v / %v", sc, asn, gb, ga, wb, wa)
			}
			if borrowed.HopsFromAttacker(asn) != want.HopsFromAttacker(asn) {
				t.Errorf("%v: AS %v hops from attacker differ", sc, asn)
			}
		}
		if borrowed.Effective() != (len(want.NewlyPolluted()) > 0) || want.Effective() != borrowed.Effective() {
			t.Errorf("%v: Effective=%v with %d newly polluted", sc, borrowed.Effective(), len(want.NewlyPolluted()))
		}
		effective[borrowed.Effective()]++
	}
	if effective[true] < 10 || effective[false] < 10 {
		t.Errorf("sample has %d effective and %d no-op attacks; want both", effective[true], effective[false])
	}
}
