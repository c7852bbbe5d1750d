package experiment

import (
	"context"
	"errors"
	"slices"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/routing"
)

// TestBaselineCacheSharesOneResult: every get of one key lends the same
// Result; another λ of the same victim is a distinct entry, shifted from the
// resident one instead of propagated — a hit — and bit-equal to what a
// propagation gives. The counters keep their identities: hits + misses ==
// gets, misses == propagations.
func TestBaselineCacheSharesOneResult(t *testing.T) {
	g := expGraph(t, 300, 7)
	c := new(obs.Counters)
	cache := newBaselineCache(g, c, routing.NewScratch(), 0)
	victim := g.Tier1s()[0]

	first, err := cache.get(victim, 3)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	for i := 1; i < 16; i++ {
		if res, err := cache.get(victim, 3); err != nil || res != first {
			t.Fatalf("get %d = %p, %v; want the first Result %p", i, res, err, first)
		}
	}
	if len(cache.m) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(cache.m))
	}
	kept := first.Clone()
	for _, lambda := range []int{5, 1} { // a shift up, then one down from it
		other, err := cache.get(victim, lambda)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := routing.Propagate(g, routing.Announcement{Origin: victim, Prepend: lambda})
		if err != nil {
			t.Fatal(err)
		}
		if other == first || !sameRows(other, direct) || other.ReachableCount() != direct.ReachableCount() {
			t.Fatalf("λ=%d: the shifted entry shares λ=3's Result or diverges from a propagation", lambda)
		}
	}
	if !sameRows(first, kept) {
		t.Fatal("shifting rewrote the lent λ=3 Result")
	}
	if len(cache.m) != 3 {
		t.Fatalf("cache holds %d entries, want 3", len(cache.m))
	}
	if s := c.Snapshot(); s.BaselineMisses != 1 || s.BaselineHits != 17 || s.BasePropagations != 1 {
		t.Fatalf("18 gets of 3 λ of one victim: misses=%d hits=%d prop_base=%d, want 1/17/1",
			s.BaselineMisses, s.BaselineHits, s.BasePropagations)
	}
}

// TestBaselineCacheShiftNeedsResidentSource: with the previous get's Result
// evicted there is nothing to shift, so the victim's next λ propagates; a
// victim that fails validation fails for every λ, and a λ that fails it is
// never reached by a shift.
func TestBaselineCacheShiftNeedsResidentSource(t *testing.T) {
	g := expGraph(t, 300, 7)
	t1 := g.Tier1s()
	const bogus = bgp.ASN(4_000_000_000)
	c := new(obs.Counters)
	cache := newBaselineCache(g, c, routing.NewScratch(), 1) // every insert evicts its predecessor
	if _, err := cache.get(t1[0], 1); err != nil {
		t.Fatal(err)
	}
	other, err := routing.Propagate(g, routing.Announcement{Origin: t1[1], Prepend: 1})
	if err != nil {
		t.Fatal(err)
	}
	cache.install(baselineKey{t1[1], 1}, other) // evicts the source, leaves it the last get
	if cache.m[baselineKey{t1[0], 1}] != nil {
		t.Fatal("1-byte budget kept the source resident")
	}
	next, err := cache.get(t1[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := routing.Propagate(g, routing.Announcement{Origin: t1[0], Prepend: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.BasePropagations != 2 || s.BaselineMisses != 2 || !sameRows(next, direct) {
		t.Fatalf("λ=2 after its source was evicted: prop_base=%d misses=%d, want a second propagation", s.BasePropagations, s.BaselineMisses)
	}
	if _, err := cache.get(t1[0], 0); err == nil {
		t.Fatal("λ=0 shifted into existence past validation")
	}
	for lambda := 1; lambda <= 8; lambda++ {
		if _, err := cache.get(bogus, lambda); err == nil {
			t.Fatalf("origin outside the topology accepted at λ=%d", lambda)
		}
	}
	if s := c.Snapshot(); s.BasePropagations != 2 || s.BaselineMisses != 2+1+8 {
		t.Fatalf("failed keys: prop_base=%d misses=%d, want 2 and 11", s.BasePropagations, s.BaselineMisses)
	}
}

// sameRows reports whether two Results hold the same routing table.
func sameRows(a, b *routing.Result) bool {
	return slices.Equal(a.Class, b.Class) && slices.Equal(a.Len, b.Len) &&
		slices.Equal(a.Parent, b.Parent) && slices.Equal(a.Prep, b.Prep)
}

// TestBaselineCacheMatchesDirectPropagation: an entry is the direct
// propagation's table whether get propagated it or shifted it from another
// λ, and a key that fails validation poisons only itself.
func TestBaselineCacheMatchesDirectPropagation(t *testing.T) {
	g := expGraph(t, 300, 7)
	const bogus = bgp.ASN(4_000_000_000)
	c := new(obs.Counters)
	cache := newBaselineCache(g, c, routing.NewScratch(), 0)
	if _, err := cache.get(bogus, 3); err == nil {
		t.Fatal("origin outside the topology accepted")
	}
	for _, victim := range g.Tier1s()[:2] {
		for _, lambda := range []int{3, 5} {
			res, err := cache.get(victim, lambda)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := routing.Propagate(g, routing.Announcement{Origin: victim, Prepend: lambda})
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(res, direct) {
				t.Fatalf("victim %v λ=%d: cached baseline diverges from direct propagation", victim, lambda)
			}
		}
	}
	if _, err := cache.get(bogus, 3); err == nil {
		t.Fatal("the invalid origin's poison was lost")
	}
	if s := c.Snapshot(); s.BaselineMisses != 3 || s.BaselineHits != 3 || s.BasePropagations != 2 {
		t.Fatalf("two victims at two λ and one invalid key twice: %v, want 3 misses, 3 hits, 2 propagations", s)
	}
}

// TestBaselineCachePoisonOutlivesEviction: a memoized error holds no bytes
// and is never evicted, however hard the budget squeezes the Results around
// it; release forgets it with everything else.
func TestBaselineCachePoisonOutlivesEviction(t *testing.T) {
	g := expGraph(t, 300, 32)
	asns := g.ASNs()
	const bogus = bgp.ASN(4_000_000_000)
	c := new(obs.Counters)
	cache := newBaselineCache(g, c, routing.NewScratch(), 1) // every insert evicts its predecessor
	_, poison := cache.get(bogus, 1)
	if poison == nil {
		t.Fatal("origin outside the topology accepted")
	}
	for i := 0; i < 6; i++ {
		if _, err := cache.get(asns[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	if len(cache.m) != 1 {
		t.Fatalf("%d Results resident under a 1-byte budget, want the keep floor of 1", len(cache.m))
	}
	misses := c.Snapshot().BaselineMisses
	if _, err := cache.get(bogus, 1); err != poison {
		t.Fatalf("poisoned key now fails with %v, want the memoized %v", err, poison)
	}
	if got := c.Snapshot().BaselineMisses; got != misses {
		t.Fatalf("poisoned key was recomputed: misses %d -> %d", misses, got)
	}
	cache.release()
	if _, err := cache.get(bogus, 1); err == nil || c.Snapshot().BaselineMisses != misses+1 {
		t.Fatalf("after release the key must be validated afresh: err=%v misses=%d", err, c.Snapshot().BaselineMisses)
	}
}

// TestSamplePairsCachedMatchesSimulate pins the cached+scratch sweep path
// to the plain per-call core.Simulate results.
func TestSamplePairsCachedMatchesSimulate(t *testing.T) {
	g := expGraph(t, 400, 11)
	pairs, err := SamplePairsCtx(context.Background(), g, PairConfig{Kind: PairsTier1, N: 20, Prepend: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		im, err := core.Simulate(g, core.Scenario{
			Victim: p.Victim, Attacker: p.Attacker, Prepend: 3,
		})
		if err != nil {
			t.Fatalf("Simulate(%v,%v): %v", p.Victim, p.Attacker, err)
		}
		if p.Before != im.Before() || p.After != im.After() {
			t.Fatalf("pair %v/%v: sweep path %.4f/%.4f, Simulate %.4f/%.4f",
				p.Victim, p.Attacker, p.Before, p.After, im.Before(), im.After())
		}
	}
}

func TestDriversReturnCtxErrWhenCancelled(t *testing.T) {
	g := expGraph(t, 300, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t1 := g.Tier1s()

	if _, err := SamplePairsCtx(ctx, g, PairConfig{Kind: PairsTier1, N: 10, Prepend: 3, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("SamplePairsCtx: %v, want context.Canceled", err)
	}
	if _, err := SweepPrependCfgCtx(ctx, g, SweepConfig{Victim: t1[0], Attacker: t1[1], MaxLambda: 6}); !errors.Is(err, context.Canceled) {
		t.Errorf("SweepPrependCtx: %v, want context.Canceled", err)
	}
	if _, err := SusceptibilityMatrixCtx(ctx, g, DefaultSusceptibilityConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("SusceptibilityMatrixCtx: %v, want context.Canceled", err)
	}
	cfg := DefaultDetectionConfig()
	cfg.Pairs = 10
	if _, err := RunDetectionCtx(ctx, g, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunDetectionCtx: %v, want context.Canceled", err)
	}
	if _, err := CompareAttackTypesCtx(ctx, g, DefaultCompareConfig()); !errors.Is(err, context.Canceled) {
		t.Errorf("CompareAttackTypesCtx: %v, want context.Canceled", err)
	}
}

// TestSamplePairsCancelMidSweep cancels while workers are mid-flight; the
// driver must drain and surface ctx.Err() without racing (exercised under
// -race in the tier-1 matrix).
func TestSamplePairsCancelMidSweep(t *testing.T) {
	g := expGraph(t, 400, 11)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := SamplePairsCtx(ctx, g, PairConfig{
			Kind: PairsRandom, N: 400, Prepend: 3, Seed: 3, Workers: 4,
		})
		// Either the sweep finished before the cancel landed (nil error
		// impossible here: N*20 candidates keep workers busy) or it
		// reports cancellation. Both are race-free outcomes.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("unexpected error: %v", err)
		}
	}()
	cancel()
	<-done
}
