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
// generated graphs, every third one with grafted sibling links; λ = 1..8
// each, shifted up from λ=1 and back down from λ=8. This is what lets a
// sweep shard propagate a victim once (experiment's legRunner.baseline).
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

		owned := make([]*Result, 9)
		for lambda := 1; lambda <= 8; lambda++ {
			ann := Announcement{Origin: victim, Prepend: lambda}
			if owned[lambda], err = PropagateOwned(g, ann, s); err != nil {
				t.Fatalf("%s λ=%d: PropagateOwned: %v", label, lambda, err)
			}
			slot, err := PropagateScratch(g, ann, s)
			if err != nil {
				t.Fatalf("%s λ=%d: PropagateScratch: %v", label, lambda, err)
			}
			if !baselineRowsEqual(owned[lambda], slot) || slot.reach != 0 {
				t.Fatalf("%s λ=%d: owned rows differ from the baseline slot's, or the slot carries a count", label, lambda)
			}
		}
		for lambda := 1; lambda <= 8; lambda++ {
			want := owned[lambda]
			for _, from := range []int{1, 8} {
				got := owned[from].Shifted(lambda - from)
				if !baselineRowsEqual(got, want) {
					t.Fatalf("%s: λ=%d shifted to λ=%d differs from the propagation", label, from, lambda)
				}
				if got.Via != nil || got.Origin() != victim || got.Graph() != g || got.reach != want.reach {
					t.Fatalf("%s: λ=%d shifted to λ=%d: header differs (reach %d, want %d)", label, from, lambda, got.reach, want.reach)
				}
			}
			reachable := 0
			for i := range want.Class {
				if want.ReachableIdx(int32(i)) && int32(i) != want.OriginIdx() {
					reachable++
				}
			}
			if want.ReachableCount() != reachable {
				t.Fatalf("%s λ=%d: ReachableCount %d, rows say %d", label, lambda, want.ReachableCount(), reachable)
			}
		}
	}
	if siblings < 60 {
		t.Fatalf("only %d sibling-bearing graphs", siblings)
	}
}

// baselineRowsEqual compares every column a no-attack Result has.
func baselineRowsEqual(a, b *Result) bool {
	return slices.Equal(a.Class, b.Class) && slices.Equal(a.Len, b.Len) &&
		slices.Equal(a.Prep, b.Prep) && slices.Equal(a.Parent, b.Parent)
}
