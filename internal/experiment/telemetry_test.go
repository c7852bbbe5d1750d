package experiment

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// TestSamplePairsPropagationBudget pins the chunked-draining fix: a
// random-pair sweep must run about N attack propagations, not the full
// 20N retry budget the old code always simulated. Skippable draws are
// accounted for, so propagations + skips stays within one extra chunk.
func TestSamplePairsPropagationBudget(t *testing.T) {
	g := expGraph(t, 300, 32)
	c := new(obs.Counters)
	cfg := PairConfig{Kind: PairsRandom, N: 15, Prepend: 3, Seed: 9, Workers: 4, Counters: c}
	pairs, err := SamplePairsCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("SamplePairs: %v", err)
	}
	if len(pairs) != cfg.N {
		t.Fatalf("got %d pairs, want %d", len(pairs), cfg.N)
	}
	s := c.Snapshot()
	attacks := s.AttackPropagations()
	if attacks < int64(cfg.N) {
		t.Fatalf("AttackPropagations=%d, want >= N=%d", attacks, cfg.N)
	}
	// Each chunk is N candidates; a usable sweep should need at most two
	// chunks, i.e. far below the 20N budget the old code burned.
	if total := attacks + s.SkippedUnreachable; total > int64(2*cfg.N) {
		t.Fatalf("attacks+skips=%d, want <= 2N=%d (overcompute regression)", total, 2*cfg.N)
	}
	// ASPP legs run delta propagation against the cached baselines.
	if s.DeltaPropagations == 0 || s.FullPropagations != 0 {
		t.Fatalf("prop_delta=%d prop_full=%d, want every ASPP leg on the delta engine", s.DeltaPropagations, s.FullPropagations)
	}
	if s.BaselineMisses == 0 {
		t.Fatal("BaselineMisses=0, want at least one baseline computed")
	}
	if s.BasePropagations != s.BaselineMisses {
		t.Fatalf("BasePropagations=%d, BaselineMisses=%d; every miss computes exactly one baseline",
			s.BasePropagations, s.BaselineMisses)
	}
}

// TestSweepPrependCounters: a fixed-pair λ sweep propagates the victim once
// per shard — the shard's other λ are shifts, counted as hits — and runs one
// attack propagation per λ, with no skips.
func TestSweepPrependCounters(t *testing.T) {
	g := expGraph(t, 300, 32)
	t1 := g.Tier1s()
	if len(t1) < 2 {
		t.Skip("need two tier-1 ASes")
	}
	c := new(obs.Counters)
	const maxLambda = 5
	points, err := SweepPrependCfgCtx(context.Background(), g, SweepConfig{
		Victim: t1[0], Attacker: t1[1], MaxLambda: maxLambda, Workers: 2, Counters: c,
	})
	if err != nil {
		t.Fatalf("SweepPrependCfgCtx: %v", err)
	}
	if len(points) != maxLambda {
		t.Fatalf("got %d points, want %d", len(points), maxLambda)
	}
	s := c.Snapshot()
	if s.BaselineMisses != 2 || s.BasePropagations != 2 || s.BaselineHits != maxLambda-2 {
		t.Fatalf("baselines: misses=%d props=%d hits=%d, want 2, 2 and %d (one propagation per shard)",
			s.BaselineMisses, s.BasePropagations, s.BaselineHits, maxLambda-2)
	}
	if s.AttackPropagations() != maxLambda {
		t.Fatalf("AttackPropagations=%d, want %d (one per λ)", s.AttackPropagations(), maxLambda)
	}
	if s.SkippedUnreachable != 0 {
		t.Fatalf("SkippedUnreachable=%d, want 0 for a fixed tier-1 pair", s.SkippedUnreachable)
	}
}

// TestSamplePairsBaselineFailureFatal pins the error-conflation fix: a
// baseline computation failure must abort the sweep with ErrBaselineFailed,
// not be treated as a redrawable instance. The old code redrew it, which
// silently shrank the sample (the failure is memoized per victim, so every
// retry for that victim failed again).
func TestSamplePairsBaselineFailureFatal(t *testing.T) {
	g := expGraph(t, 300, 32)
	orig := propagateBaseline
	defer func() { propagateBaseline = orig }()
	propagateBaseline = func(*topology.Graph, routing.Announcement, *routing.Scratch) (*routing.Result, error) {
		return nil, fmt.Errorf("injected baseline fault")
	}
	_, err := SamplePairsCtx(context.Background(), g, PairConfig{Kind: PairsRandom, N: 10, Prepend: 3, Seed: 9, Workers: 4})
	if err == nil {
		t.Fatal("baseline failure silently swallowed")
	}
	if !errors.Is(err, ErrBaselineFailed) {
		t.Fatalf("err=%v, want errors.Is(..., ErrBaselineFailed)", err)
	}
}

// TestSweepPrependBaselineFailureFatal: same contract for the λ sweep.
func TestSweepPrependBaselineFailureFatal(t *testing.T) {
	g := expGraph(t, 300, 32)
	orig := propagateBaseline
	defer func() { propagateBaseline = orig }()
	propagateBaseline = func(*topology.Graph, routing.Announcement, *routing.Scratch) (*routing.Result, error) {
		return nil, fmt.Errorf("injected baseline fault")
	}
	t1 := g.Tier1s()
	if len(t1) < 2 {
		t.Skip("need two tier-1 ASes")
	}
	_, err := SweepPrependCfgCtx(context.Background(), g, SweepConfig{Victim: t1[0], Attacker: t1[1], MaxLambda: 4, Workers: 2})
	if !errors.Is(err, ErrBaselineFailed) {
		t.Fatalf("err=%v, want errors.Is(..., ErrBaselineFailed)", err)
	}
}

// unreachableAttackerGraph is a small hierarchy with AS 900 hanging off
// stub 100 by a peer link only, so 900 learns no route but 100's own (and
// nobody but 100 learns 900's).
func unreachableAttackerGraph(t *testing.T) *topology.Graph {
	t.Helper()
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{10, 30}, {10, 40}, {20, 50}, {20, 60},
		{30, 100}, {40, 70}, {50, 200}, {60, 300},
	} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatalf("AddP2C(%v): %v", e, err)
		}
	}
	if err := b.AddP2P(10, 20); err != nil {
		t.Fatalf("AddP2P: %v", err)
	}
	if err := b.AddP2P(100, 900); err != nil {
		t.Fatalf("AddP2P: %v", err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// TestSamplePairsSkippableRedrawn: an unreachable-attacker draw is skipped
// and redrawn from the stream rather than failing the sweep, and the sweep
// still fills its full quota. Generated topologies are too well-connected
// to hit the skip path, so this runs on unreachableAttackerGraph: every
// draw with 900 as the attacker (and victim != 100) is skippable.
func TestSamplePairsSkippableRedrawn(t *testing.T) {
	g := unreachableAttackerGraph(t)
	c := new(obs.Counters)
	const n = 12
	pairs, err := SamplePairsCtx(context.Background(), g, PairConfig{Kind: PairsRandom, N: n, Prepend: 2, Seed: 3, Workers: 4, Counters: c})
	if err != nil {
		t.Fatalf("SamplePairs: %v", err)
	}
	if len(pairs) != n {
		t.Fatalf("got %d pairs, want %d (skippable draws must be redrawn, not lost)", len(pairs), n)
	}
	s := c.Snapshot()
	if s.SkippedUnreachable == 0 {
		t.Fatal("SkippedUnreachable=0; the graph is built so draws with attacker 900 skip")
	}
	if s.AttackPropagations() < n {
		t.Fatalf("AttackPropagations=%d, want >= %d despite skips", s.AttackPropagations(), n)
	}
}
