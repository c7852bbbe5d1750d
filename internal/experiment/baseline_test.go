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
	"aspp/internal/topology"
)

// oneShard returns a one-shard runner over g and its shard, for calling
// the shard baseline directly.
func oneShard(t *testing.T, g *topology.Graph, c *obs.Counters) (*legRunner, *shardState) {
	t.Helper()
	r := newLegRunner(g, legOptions{what: "baseline test", workers: 1, counters: c})
	return r, r.shards[0]
}

// TestBaselineCacheSharesOneResult: every call on the shard's victim lends
// the same Result, its Scratch's baseline slot; another λ of the victim is
// that Result shifted in place instead of propagated — a hit — bit-equal to
// what a propagation gives. The counters keep their identities: hits +
// misses == calls, misses == propagations.
func TestBaselineCacheSharesOneResult(t *testing.T) {
	g := expGraph(t, 300, 7)
	c := new(obs.Counters)
	r, st := oneShard(t, g, c)
	victim := g.Tier1s()[0]

	first, err := r.baseline(st, victim, 3)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for i := 1; i < 16; i++ {
		if res, err := r.baseline(st, victim, 3); err != nil || res != first {
			t.Fatalf("call %d = %p, %v; want the first Result %p", i, res, err, first)
		}
	}
	for _, lambda := range []int{5, 1} { // a shift up, then one down from it
		other, err := r.baseline(st, victim, lambda)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := routing.Propagate(g, routing.Announcement{Origin: victim, Prepend: lambda})
		if err != nil {
			t.Fatal(err)
		}
		if other != first || !sameRows(other, direct) || other.ReachableCount() != direct.ReachableCount() {
			t.Fatalf("λ=%d: the shifted baseline is not λ=3's Result rewritten in place, or diverges from a propagation", lambda)
		}
		if st.base != other {
			t.Fatalf("λ=%d: the shard does not hold the baseline it lent", lambda)
		}
	}
	if s := c.Snapshot(); s.BaselineMisses != 1 || s.BaselineHits != 17 || s.BasePropagations != 1 {
		t.Fatalf("18 calls at 3 λ of one victim: misses=%d hits=%d prop_base=%d, want 1/17/1",
			s.BaselineMisses, s.BaselineHits, s.BasePropagations)
	}
}

// TestBaselineCacheShiftNeedsResidentSource: a shard holds the baseline of
// the victim it is on and no other. Another victim is a miss that replaces
// it, so coming back to the first victim, at any λ, propagates again. A
// failed call leaves the shard holding nothing: λ=0 is never shifted into
// existence past validation, and a victim that fails validation fails, as
// a miss, at every λ.
func TestBaselineCacheShiftNeedsResidentSource(t *testing.T) {
	g := expGraph(t, 300, 7)
	t1 := g.Tier1s()
	const bogus = bgp.ASN(4_000_000_000)
	c := new(obs.Counters)
	r, st := oneShard(t, g, c)
	for _, v := range []bgp.ASN{t1[0], t1[1]} {
		if _, err := r.baseline(st, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	next, err := r.baseline(st, t1[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := routing.Propagate(g, routing.Announcement{Origin: t1[0], Prepend: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Snapshot(); s.BasePropagations != 3 || s.BaselineMisses != 3 || s.BaselineHits != 0 || !sameRows(next, direct) {
		t.Fatalf("λ=2 after another victim: prop_base=%d misses=%d hits=%d, want a third propagation and no hit",
			s.BasePropagations, s.BaselineMisses, s.BaselineHits)
	}
	if _, err := r.baseline(st, t1[0], 0); err == nil {
		t.Fatal("λ=0 shifted into existence past validation")
	}
	if st.origin != 0 {
		t.Fatal("a failed call left the shard holding a baseline")
	}
	for lambda := 1; lambda <= 8; lambda++ {
		if _, err := r.baseline(st, bogus, lambda); err == nil {
			t.Fatalf("origin outside the topology accepted at λ=%d", lambda)
		}
	}
	if s := c.Snapshot(); s.BasePropagations != 3 || s.BaselineMisses != 3+1+8 {
		t.Fatalf("failed keys: prop_base=%d misses=%d, want 3 and 12", s.BasePropagations, s.BaselineMisses)
	}
}

// TestBaselineHeldWithoutAllocating: once its Scratch is warm, a shard
// moves between victims and λ without allocating — a new victim is
// propagated into the baseline slot and a new λ shifts it there.
func TestBaselineHeldWithoutAllocating(t *testing.T) {
	g := expGraph(t, 300, 7)
	r, st := oneShard(t, g, new(obs.Counters))
	t1 := g.Tier1s()
	keys := []struct {
		victim bgp.ASN
		lambda int
	}{{t1[0], 1}, {t1[0], 4}, {t1[0], 2}, {t1[1], 3}, {t1[1], 8}, {t1[2], 1}}
	walk := func() {
		for _, k := range keys {
			if _, err := r.baseline(st, k.victim, k.lambda); err != nil {
				t.Fatal(err)
			}
		}
	}
	walk()
	if avg := testing.AllocsPerRun(20, walk); avg != 0 {
		t.Fatalf("a warm shard allocates %.1f objects per %d baselines, want 0", avg, len(keys))
	}
}

// TestShiftedBaselineCostsOnePropagation: a shard's baseline costs the same
// bytes whether it was propagated or shifted from another λ — exactly one
// fresh propagation's MemoryBytes — and so does the cache_bytes gauge of a
// λ sweep, whose shards shift their baseline at every step.
func TestShiftedBaselineCostsOnePropagation(t *testing.T) {
	g := expGraph(t, 300, 7)
	t1 := g.Tier1s()
	one, err := routing.Propagate(g, routing.Announcement{Origin: t1[0], Prepend: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, st := oneShard(t, g, nil)
	for _, lambda := range []int{2, 6, 3} {
		if _, err := r.baseline(st, t1[0], lambda); err != nil {
			t.Fatal(err)
		}
		if got := st.base.MemoryBytes(); got != one.MemoryBytes() {
			t.Fatalf("λ=%d: the held baseline costs %d B, one propagation %d B", lambda, got, one.MemoryBytes())
		}
	}
	for _, workers := range []int{1, 2} {
		c := new(obs.Counters)
		withGOMAXPROCS(t, workers)
		if _, err := SweepPrependCfgCtx(context.Background(), g, SweepConfig{
			Victim: t1[0], Attacker: t1[1], MaxLambda: 8, Counters: c,
		}); err != nil {
			t.Fatal(err)
		}
		if s := c.Snapshot(); s.CacheBytes != one.MemoryBytes() || s.BaselineHits == 0 {
			t.Fatalf("workers=%d: λ sweep cache_bytes=%d after %d shifts, want one propagation's %d",
				workers, s.CacheBytes, s.BaselineHits, one.MemoryBytes())
		}
	}
}

// sameRows reports whether two Results hold the same routing table.
func sameRows(a, b *routing.Result) bool {
	return slices.Equal(a.Class, b.Class) && slices.Equal(a.Len, b.Len) &&
		slices.Equal(a.Parent, b.Parent) && slices.Equal(a.Prep, b.Prep)
}

// TestBaselineCacheMatchesDirectPropagation: a shard's baseline is the
// direct propagation's table whether it propagated it or shifted it from
// another λ, and a key that fails validation fails again when asked again.
func TestBaselineCacheMatchesDirectPropagation(t *testing.T) {
	g := expGraph(t, 300, 7)
	const bogus = bgp.ASN(4_000_000_000)
	c := new(obs.Counters)
	r, st := oneShard(t, g, c)
	if _, err := r.baseline(st, bogus, 3); err == nil {
		t.Fatal("origin outside the topology accepted")
	}
	for _, victim := range g.Tier1s()[:2] {
		for _, lambda := range []int{3, 5} {
			res, err := r.baseline(st, victim, lambda)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := routing.Propagate(g, routing.Announcement{Origin: victim, Prepend: lambda})
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(res, direct) {
				t.Fatalf("victim %v λ=%d: shard baseline diverges from direct propagation", victim, lambda)
			}
		}
	}
	if _, err := r.baseline(st, bogus, 3); err == nil {
		t.Fatal("the invalid origin was accepted the second time")
	}
	if s := c.Snapshot(); s.BaselineMisses != 4 || s.BaselineHits != 2 || s.BasePropagations != 2 {
		t.Fatalf("two victims at two λ and one invalid key twice: %v, want 4 misses, 2 hits, 2 propagations", s)
	}
}

// TestSamplePairsCachedMatchesSimulate pins the sweep path (shard
// baselines, shard scratch) to the plain per-call core.Simulate results.
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
