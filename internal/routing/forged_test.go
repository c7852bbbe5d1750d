package routing

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// This file tests the forged attack kinds (AttackOriginHijack,
// AttackNextHopInterception) of the Fast engine against the multi-announcer
// oracle in seeds_test.go.

var forgedKinds = []AttackKind{AttackOriginHijack, AttackNextHopInterception}

// forgedOracle runs the oracle for a plain announcement plus atk's forged
// claim.
func forgedOracle(t testing.TB, g *topology.Graph, ann Announcement, atk Attacker) *seedRoutes {
	t.Helper()
	honest := make(bgp.Path, ann.Prepend)
	for i := range honest {
		honest[i] = ann.Origin
	}
	forged := bgp.Path{atk.AS}
	if atk.Kind == AttackNextHopInterception {
		forged = bgp.Path{atk.AS, ann.Origin}
	}
	want, err := PropagateSeeds(g, []Seed{{AS: ann.Origin, Path: honest}, {AS: atk.AS, Path: forged}})
	if err != nil {
		t.Fatalf("PropagateSeeds: %v", err)
	}
	return want
}

// checkForged compares a forged-kind Result with the oracle at every AS:
// path, class and via.
func checkForged(t testing.TB, g *topology.Graph, res *Result, want *seedRoutes, atk Attacker, label string) {
	t.Helper()
	for i := int32(0); i < int32(g.NumASes()); i++ {
		asn := g.ASNAt(i)
		if got := res.PathOfIdx(i); !got.Equal(want.Paths[i]) {
			t.Errorf("%s: path at %v = %v, oracle %v", label, asn, got, want.Paths[i])
		}
		if res.Class[i] != want.Class[i] {
			t.Errorf("%s: class at %v = %v, oracle %v", label, asn, res.Class[i], want.Class[i])
		}
		if via := asn != atk.AS && want.Paths[i].Contains(atk.AS); res.Via[i] != via {
			t.Errorf("%s: via at %v = %v, oracle %v", label, asn, res.Via[i], via)
		}
		if p := res.PathOfIdx(i); p != nil && int32(len(p)) != res.Len[i] {
			t.Errorf("%s: %v: len(PathOf)=%d, Len=%d", label, asn, len(p), res.Len[i])
		}
	}
}

// TestForgedDifferential: ≥1,000 random forged scenarios — both kinds,
// λ 1..5, mixed tiers, one Scratch reused throughout and interleaved with
// ASPP attacks on the same slot — must match the oracle at every AS.
func TestForgedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20120618))
	s := NewScratch()
	scenarios := 0
	for trial := 0; trial < 180; trial++ {
		g, ann, strip := randomScenario(t, rng)
		ann = Announcement{Origin: ann.Origin, Prepend: 1 + trial%5}
		asns := g.ASNs()
		for k := 0; k < 3; k++ {
			atk := Attacker{AS: asns[rng.Intn(len(asns))]}
			if atk.AS == ann.Origin {
				continue
			}
			for _, kind := range forgedKinds {
				atk.Kind = kind
				// The stripping knobs must not leak into a forged claim.
				atk.KeepPrepend, atk.ViolateValleyFree = rng.Intn(3), rng.Intn(2) == 0
				label := fmt.Sprintf("trial %d %v V=%v M=%v λ=%d", trial, kind, ann.Origin, atk.AS, ann.Prepend)
				res, err := PropagateAttackScratch(g, ann, atk, nil, s)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkForged(t, g, res, forgedOracle(t, g, ann, atk), atk, label)
				scenarios++
			}
		}
		// An ASPP attack through the same slot in between: rejection marks
		// and the forger state must not survive into the next trial.
		if _, err := PropagateAttackScratch(g, ann, strip, nil, s); err != nil && err != ErrUnreachableAttacker {
			t.Fatalf("trial %d: strip attack: %v", trial, err)
		}
		if t.Failed() {
			t.Fatalf("stopping after first failing trial (%d)", trial)
		}
	}
	if scenarios < 1000 {
		t.Fatalf("only %d scenarios exercised, want >= 1000", scenarios)
	}
}

// TestForgedSiblingDifferential: the forged kinds on sibling-bearing graphs
// (≥500 scenarios, announcers with and without siblings) against the same
// oracle. A forger's sibling hears the claim as a customer route, like an
// origin's.
func TestForgedSiblingDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(6511))
	s := NewScratch()
	scenarios := 0
	for trial := 0; trial < 260; trial++ {
		g, ann, atk := siblingScenario(t, rng)
		ann = Announcement{Origin: ann.Origin, Prepend: ann.Prepend}
		for _, kind := range forgedKinds {
			atk.Kind = kind
			label := fmt.Sprintf("trial %d %v V=%v M=%v λ=%d", trial, kind, ann.Origin, atk.AS, ann.Prepend)
			res, err := PropagateAttackScratch(g, ann, atk, nil, s)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkForged(t, g, res, forgedOracle(t, g, ann, atk), atk, label)
			scenarios++
		}
		if t.Failed() {
			t.Fatalf("stopping after first failing trial (%d)", trial)
		}
	}
	if scenarios < 500 {
		t.Fatalf("only %d scenarios exercised, want >= 500", scenarios)
	}
}

// TestForgedHandGraph pins the representation on the hand-checkable
// topology: the attacker's row and the captured ASes' parent chains.
func TestForgedHandGraph(t *testing.T) {
	g := testGraph(t)
	ann := Announcement{Origin: 100, Prepend: 3}
	for _, tc := range []struct {
		kind     AttackKind
		at70     string
		len, pre int
	}{
		{AttackOriginHijack, "50 20 60 200", 0, 0},
		{AttackNextHopInterception, "50 20 60 200 100", 1, 1},
	} {
		res, err := PropagateAttackScratch(g, ann, Attacker{AS: 200, Kind: tc.kind}, nil, nil)
		if err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		m := mustIdx(t, g, 200)
		if res.Class[m] != ClassNone || res.Parent[m] != res.OriginIdx() ||
			int(res.Len[m]) != tc.len || int(res.Prep[m]) != tc.pre || res.Via[m] {
			t.Errorf("%v: attacker row = class %v parent %d len %d prep %d via %v",
				tc.kind, res.Class[m], res.Parent[m], res.Len[m], res.Prep[m], res.Via[m])
		}
		if res.PathOf(200) != nil || res.Reachable(200) {
			t.Errorf("%v: the forger adopted a route", tc.kind)
		}
		// 70 hears the honest [40 10 30 100 100 100] (len 6) and the forged
		// route via 50 (len 4 or 5), both from providers: the forgery wins.
		if got := pathString(t, res, 70); got != tc.at70 {
			t.Errorf("%v: path at 70 = %q, want %q", tc.kind, got, tc.at70)
		}
		// 30 keeps its customer route to the victim.
		if got := pathString(t, res, 30); got != "100 100 100" {
			t.Errorf("%v: path at 30 = %q", tc.kind, got)
		}
		checkForged(t, g, res, forgedOracle(t, g, ann, Attacker{AS: 200, Kind: tc.kind}), Attacker{AS: 200}, tc.kind.String())
	}
}

// TestForgedPathsIntoDecodesToPathOf: span extraction must agree with
// PathOf on forged results too, and name the hijacker as the path origin
// of an origin-hijack capture.
func TestForgedPathsIntoDecodesToPathOf(t *testing.T) {
	g := arenaTestGraph(t, 600, 29)
	t1 := g.Tier1s()
	ann := Announcement{Origin: t1[0], Prepend: 3}
	monitors := allIndices(g)
	a := NewPathArena()
	for _, kind := range forgedKinds {
		res, err := PropagateAttackScratch(g, ann, Attacker{AS: t1[1], Kind: kind}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		a.Reset()
		spans := res.PathsInto(a, monitors, nil)
		captured := 0
		for i, sp := range spans {
			if got, want := a.Path(sp), res.PathOfIdx(int32(i)); !got.Equal(want) {
				t.Fatalf("%v: AS %d: span decodes to %v, PathOf %v", kind, i, got, want)
			}
			if !res.Via[i] {
				continue
			}
			captured++
			wantOrigin := ann.Origin
			if kind == AttackOriginHijack {
				wantOrigin = t1[1]
			}
			if sp.Origin != wantOrigin || sp.Prep != 1 {
				t.Fatalf("%v: captured AS %d: span origin %v prep %d, want %v ×1", kind, i, sp.Origin, sp.Prep, wantOrigin)
			}
		}
		if captured == 0 {
			t.Fatalf("%v: nobody captured", kind)
		}
		if avg := testing.AllocsPerRun(20, func() {
			a.Reset()
			arenaSinkSpans = res.PathsInto(a, monitors, spans[:0])
		}); avg != 0 {
			t.Errorf("%v: warmed PathsInto allocates %.1f objects per run, want 0", kind, avg)
		}
	}
}

// TestForgedZeroAlloc: a warmed forged propagation stays off the heap.
func TestForgedZeroAlloc(t *testing.T) {
	g := arenaTestGraph(t, 800, 13)
	ann := Announcement{Origin: g.Tier1s()[0], Prepend: 3}
	s := NewScratch()
	for _, kind := range forgedKinds {
		atk := Attacker{AS: g.Tier1s()[1], Kind: kind}
		if _, err := PropagateAttackScratch(g, ann, atk, nil, s); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(20, func() {
			allocSinkResult, allocSinkErr = PropagateAttackScratch(g, ann, atk, nil, s)
		}); avg != 0 || allocSinkErr != nil {
			t.Errorf("%v: warmed PropagateAttackScratch allocates %.1f objects per run (err %v), want 0", kind, avg, allocSinkErr)
		}
	}
}

// TestForgedEngineContracts: only the full kernel serves a forged claim.
// The delta engine, the bench-only lane loop over it and the reference engine
// refuse it, and — unlike the stripping attacker — a forger needs no
// route to the origin.
func TestForgedEngineContracts(t *testing.T) {
	g := testGraph(t)
	ann := Announcement{Origin: 100, Prepend: 3}
	base := mustPropagate(t, g, ann)
	for _, kind := range forgedKinds {
		atk := Attacker{AS: 200, Kind: kind}
		if _, err := PropagateAttackDelta(g, ann, atk, base, NewScratch()); !errors.Is(err, errNeedsStrip) {
			t.Errorf("%v: delta err = %v, want errNeedsStrip", kind, err)
		}
		lanes := []AttackLane{{Ann: ann, Atk: Attacker{AS: 50}, Baseline: base}, {Ann: ann, Atk: atk, Baseline: base}}
		if _, err := PropagateAttackDeltaBatch(g, lanes, NewBatchScratch()); !errors.Is(err, errNeedsStrip) {
			t.Errorf("%v: delta batch err = %v, want errNeedsStrip", kind, err)
		}
		if _, err := PropagateReference(g, ann, &atk); !errors.Is(err, errNeedsStrip) {
			t.Errorf("%v: reference err = %v, want errNeedsStrip", kind, err)
		}

		// The victim withholds from its only neighbor: nobody, the attacker
		// included, has a route — the stripping attack cannot exist, the
		// forged one captures everyone the claim reaches.
		dark := Announcement{Origin: 100, Prepend: 3, PerNeighbor: map[bgp.ASN]int{30: 0}}
		if _, err := PropagateAttackScratch(g, dark, Attacker{AS: 200}, nil, nil); err != ErrUnreachableAttacker {
			t.Errorf("strip attack on a dark prefix: err = %v, want ErrUnreachableAttacker", err)
		}
		res, err := PropagateAttackScratch(g, dark, atk, nil, nil)
		if err != nil {
			t.Fatalf("%v on a dark prefix: %v", kind, err)
		}
		if got := res.PollutedCount(); got != g.NumASes()-2 {
			t.Errorf("%v on a dark prefix captured %d ASes, want %d", kind, got, g.NumASes()-2)
		}
	}
	if _, err := PropagateAttackScratch(g, ann, Attacker{AS: 200, Kind: AttackNextHopInterception + 1}, nil, nil); err == nil {
		t.Error("unknown attack kind accepted")
	}
}

// FuzzForgedAttack drives the forged kinds with fuzzed topologies,
// victims, attackers and λ: the kernel must never panic, must match the
// oracle at every AS, and must pass checkStable. Wired into `make
// fuzz-smoke`.
func FuzzForgedAttack(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(42), uint8(1), uint8(2), uint8(3))
	f.Add(int64(7), uint8(0), uint8(4), uint8(200))
	f.Add(int64(99), uint8(1), uint8(9), uint8(77))
	f.Add(int64(-3), uint8(255), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, kindSel, lambdaSel, nSel uint8) {
		cfg := topology.DefaultGenConfig(60 + int(nSel)%80)
		cfg.Seed = seed
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		asns := g.ASNs()
		ann := Announcement{Origin: asns[rng.Intn(len(asns))], Prepend: 1 + int(lambdaSel)%5}
		atk := Attacker{AS: pickOther(g, ann.Origin), Kind: forgedKinds[int(kindSel)%2]}
		res, err := PropagateAttackScratch(g, ann, atk, nil, NewScratch())
		if err != nil {
			t.Fatalf("PropagateAttackScratch: %v", err)
		}
		checkForged(t, g, res, forgedOracle(t, g, ann, atk), atk, atk.Kind.String())
		checkStable(t, g, res, ann, &atk, nil)
	})
}

func TestPropagateSeedsSingleSeedMatchesFastEngine(t *testing.T) {
	// With one honest seed, the oracle must agree with the standard
	// engine path-for-path.
	g := testGraph(t)
	multi, err := PropagateSeeds(g, []Seed{{AS: 100, Path: bgp.Path{100, 100, 100}}})
	if err != nil {
		t.Fatalf("PropagateSeeds: %v", err)
	}
	fast := mustPropagate(t, g, Announcement{Origin: 100, Prepend: 3})
	for _, asn := range g.ASNs() {
		if got, want := multi.PathOf(asn), fast.PathOf(asn); !got.Equal(want) {
			t.Errorf("%v: multi %v vs fast %v", asn, got, want)
		}
	}
	if multi.PathOf(424242) != nil {
		t.Error("unknown AS has a path")
	}
}

func TestPropagateSeedsValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := PropagateSeeds(g, nil); err == nil {
		t.Error("no seeds accepted")
	}
	if _, err := PropagateSeeds(g, []Seed{{AS: 100}}); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := PropagateSeeds(g, []Seed{{AS: 100, Path: bgp.Path{999}}}); err == nil {
		t.Error("path not starting with announcer accepted")
	}
	if _, err := PropagateSeeds(g, []Seed{{AS: 424242, Path: bgp.Path{424242}}}); err == nil {
		t.Error("unknown announcer accepted")
	}
}
