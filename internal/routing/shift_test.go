package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// TestLambdaShiftProperty: the origin's padding changes no AS's choice among
// the legitimate routes, so the no-attack outcome for λ is the λ=1 outcome
// with every routed row's Len moved by λ-1 and its Prep set to λ — Class,
// Parent, and the origin's and the unreachable rows as they were. 240
// generated graphs, every third one with grafted sibling links; a Scratch's
// baseline slot propagated at λ=1 and at λ=8 is shifted in place through
// λ = 1..8 in a random order, and every step equals Propagate's standalone
// Result at that λ, reachable count included. This is what lets a sweep
// shard propagate a victim once (experiment's legRunner.baseline).
func TestLambdaShiftProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1912))
	s := NewScratch()
	siblings := 0
	for trial := 0; trial < 240; trial++ {
		cfg := topology.DefaultGenConfig(40 + rng.Intn(160))
		cfg.Tier1 = 3 + rng.Intn(4)
		cfg.Seed = rng.Int63()
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		pool := g.ASNs()
		if trial%3 == 0 {
			var orgs []bgp.ASN
			g, orgs = graftSiblings(t, g, rng)
			if rng.Intn(2) == 0 {
				pool = orgs // an origin inside an organization
			}
			siblings++
		}
		victim := pool[rng.Intn(len(pool))]
		label := fmt.Sprintf("trial %d (n=%d V=%v siblings=%v)", trial, g.NumASes(), victim, g.HasSiblings())

		want := make([]*Result, 9)
		for lambda := 1; lambda <= 8; lambda++ {
			if want[lambda], err = Propagate(g, Announcement{Origin: victim, Prepend: lambda}); err != nil {
				t.Fatalf("%s λ=%d: Propagate: %v", label, lambda, err)
			}
			reachable := 0
			for i := range want[lambda].Class {
				if want[lambda].ReachableIdx(int32(i)) && int32(i) != want[lambda].OriginIdx() {
					reachable++
				}
			}
			if want[lambda].reach != int32(reachable)+1 {
				t.Fatalf("%s λ=%d: counted reach %d, rows say %d", label, lambda, want[lambda].reach-1, reachable)
			}
		}
		for _, from := range []int{1, 8} {
			slot, err := PropagateScratch(g, Announcement{Origin: victim, Prepend: from}, s)
			if err != nil {
				t.Fatalf("%s λ=%d: PropagateScratch: %v", label, from, err)
			}
			cur := from
			for _, k := range rng.Perm(8) {
				lambda, ver := k+1, slot.ver
				slot.Shift(lambda - cur)
				if !baselineRowsEqual(slot, want[lambda]) {
					t.Fatalf("%s: λ=%d shifted from λ=%d to λ=%d differs from the propagation", label, from, cur, lambda)
				}
				if slot.Via != nil || slot.Origin() != victim || slot.Graph() != g || slot.reach != want[lambda].reach {
					t.Fatalf("%s: λ=%d shifted to λ=%d: header differs (reach %d, want %d)", label, cur, lambda, slot.reach, want[lambda].reach)
				}
				if (slot.ver == ver) != (lambda == cur) {
					t.Fatalf("%s: a shift by %d moved the version %d -> %d", label, lambda-cur, ver, slot.ver)
				}
				cur = lambda
			}
		}
	}
	if siblings < 60 {
		t.Fatalf("only %d sibling-bearing graphs", siblings)
	}
}

// TestDeltaMirrorFollowsSlotVersion: the delta slot repairs its mirror of a
// baseline in O(previous cone) only while it is handed the same rows — the
// same Result at the same version. A Scratch's baseline slot holds victim A,
// then victim B under the same pointer, then B shifted in place, with a delta
// leg after each step and a second leg on the same rows; every row of every
// leg equals the full kernel's on a baseline of its own.
func TestDeltaMirrorFollowsSlotVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s, full := NewScratch(), NewScratch()
	legs := 0
	for trial := 0; trial < 60; trial++ {
		cfg := topology.DefaultGenConfig(60 + rng.Intn(140))
		cfg.Seed = rng.Int63()
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		asns := g.ASNs()
		pick := func() bgp.ASN { return asns[rng.Intn(len(asns))] }
		a, b, lambda := pick(), pick(), 1+rng.Intn(4)
		base, err := PropagateScratch(g, Announcement{Origin: a, Prepend: lambda}, s)
		if err != nil {
			t.Fatal(err)
		}
		step := func(what string, ann Announcement) {
			t.Helper()
			want, err := Propagate(g, ann)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 2; k++ {
				atk := Attacker{AS: pick(), ViolateValleyFree: rng.Intn(2) == 0}
				if atk.AS == ann.Origin || !want.Reachable(atk.AS) {
					continue
				}
				label := fmt.Sprintf("trial %d, %s, leg %d (V=%v λ=%d M=%v)", trial, what, k, ann.Origin, ann.Prepend, atk.AS)
				got, derr := PropagateAttackDelta(g, ann, atk, base, s)
				ref, ferr := PropagateAttackScratch(g, ann, atk, want, full)
				if derr != nil || ferr != nil {
					t.Fatalf("%s: delta err = %v, full err = %v", label, derr, ferr)
				}
				compareResults(t, g, got, ref, label)
				if t.Failed() {
					t.FailNow()
				}
				legs++
			}
		}
		step("victim A", Announcement{Origin: a, Prepend: lambda})
		ver := base.ver
		if again, err := PropagateScratch(g, Announcement{Origin: b, Prepend: lambda}, s); err != nil || again != base || again.ver == ver {
			t.Fatalf("trial %d: victim B into the slot: %p (version %d -> %d), %v; want the slot %p at a new version", trial, again, ver, base.ver, err, base)
		}
		step("victim B in A's slot", Announcement{Origin: b, Prepend: lambda})
		d := 1 + rng.Intn(3)
		base.Shift(d)
		step("victim B shifted", Announcement{Origin: b, Prepend: lambda + d})
	}
	if legs < 200 {
		t.Fatalf("only %d legs", legs)
	}
}

// baselineRowsEqual compares every column a no-attack Result has.
func baselineRowsEqual(a, b *Result) bool {
	return slices.Equal(a.Class, b.Class) && slices.Equal(a.Len, b.Len) &&
		slices.Equal(a.Prep, b.Prep) && slices.Equal(a.Parent, b.Parent)
}
