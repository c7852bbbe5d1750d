package experiment

import (
	"context"
	"errors"
	"sync"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
)

func TestBaselineCacheSharesOneResult(t *testing.T) {
	g := expGraph(t, 300, 7)
	cache := NewBaselineCache(g, nil, 0, 0)
	victim := g.Tier1s()[0]

	const goroutines = 16
	results := make([]interface{ Origin() bgp.ASN }, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			res, err := cache.Get(victim, 3)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different Result pointer", i)
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.Len())
	}
	// Distinct λ is a distinct entry.
	other, err := cache.Get(victim, 5)
	if err != nil {
		t.Fatal(err)
	}
	if other == results[0] {
		t.Fatal("λ=5 shares λ=3's baseline")
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", cache.Len())
	}
}

func TestBaselineCacheMatchesDirectPropagation(t *testing.T) {
	g := expGraph(t, 300, 7)
	cache := NewBaselineCache(g, nil, 0, 0)
	for _, victim := range g.Tier1s()[:2] {
		cached, err := cache.Get(victim, 3)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := core.BaselineOnly(g, core.Scenario{Victim: victim, Prepend: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cached.Class {
			if cached.Class[i] != direct.Class[i] || cached.Len[i] != direct.Len[i] ||
				cached.Parent[i] != direct.Parent[i] || cached.Prep[i] != direct.Prep[i] {
				t.Fatalf("victim %v: cached baseline diverges at index %d", victim, i)
			}
		}
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
