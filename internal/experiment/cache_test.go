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
// Result, a distinct λ is a distinct entry, and the counters keep their
// identities — hits + misses == gets, misses == distinct keys.
func TestBaselineCacheSharesOneResult(t *testing.T) {
	g := expGraph(t, 300, 7)
	c := new(obs.Counters)
	cache := newBaselineCache(g, c, 0, 0)
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
	other, err := cache.get(victim, 5)
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Fatal("λ=5 shares λ=3's baseline")
	}
	if len(cache.m) != 2 {
		t.Fatalf("cache holds %d entries, want 2", len(cache.m))
	}
	if s := c.Snapshot(); s.BaselineMisses != 2 || s.BaselineHits != 15 || s.BasePropagations != 2 {
		t.Fatalf("17 gets of 2 keys: misses=%d hits=%d prop_base=%d, want 2/15/2",
			s.BaselineMisses, s.BaselineHits, s.BasePropagations)
	}
}

// sameRows reports whether two Results hold the same routing table.
func sameRows(a, b *routing.Result) bool {
	return slices.Equal(a.Class, b.Class) && slices.Equal(a.Len, b.Len) &&
		slices.Equal(a.Parent, b.Parent) && slices.Equal(a.Prep, b.Prep)
}

// TestBaselineCacheMatchesDirectPropagation: an entry is the direct
// propagation's table whether get computed it or warm did, a repeated key
// warms as one lane, and a key that fails validation poisons only itself.
func TestBaselineCacheMatchesDirectPropagation(t *testing.T) {
	g := expGraph(t, 300, 7)
	t1 := g.Tier1s()
	const bogus = bgp.ASN(4_000_000_000)
	c := new(obs.Counters)
	warmed := newBaselineCache(g, c, 0, 0)
	if err := warmed.warm([]baselineKey{{t1[0], 3}, {bogus, 3}, {t1[1], 3}, {t1[0], 3}}, nil); err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.BaselineMisses != 3 || s.BatchPropagations != 2 || s.BatchCalls != 1 || s.BasePropagations != 0 {
		t.Fatalf("warm of 3 distinct keys, 1 invalid: %v", s)
	}
	if _, err := warmed.get(bogus, 3); err == nil {
		t.Fatal("warm left the invalid origin unpoisoned")
	}
	cache := newBaselineCache(g, nil, 0, 0)
	for _, victim := range t1[:2] {
		cached, err := cache.get(victim, 3)
		if err != nil {
			t.Fatal(err)
		}
		lane, err := warmed.get(victim, 3)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := core.BaselineOnly(g, core.Scenario{Victim: victim, Prepend: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(cached, direct) || !sameRows(lane, direct) {
			t.Fatalf("victim %v: get-computed or warmed baseline diverges from direct propagation", victim)
		}
	}
	if s := c.Snapshot(); s.BaselineMisses != 3 || s.BaselineHits != 3 {
		t.Fatalf("gets after warm must hit: %v", s)
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
	cache := newBaselineCache(g, c, 1, 1) // every insert evicts its predecessor
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
