package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// shardCounts is the shard-count grid of the invariance differential, set
// through PairConfig.Workers or GOMAXPROCS (one shard per worker): trivial
// (1), even split (2), prime (7), and more shards than most sweeps have
// victims (32) — empty shards must be harmless.
var shardCounts = []int{1, 2, 7, 32}

// withGOMAXPROCS sets GOMAXPROCS, and with it the shard count of every
// sweep but the pair sweep's explicit one, for the rest of the test.
func withGOMAXPROCS(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestNormalizeShards pins the shard-count rule end to end, on the shard
// states newLegRunner actually builds: one shard per worker, and Workers
// <= 0 means one per GOMAXPROCS.
func TestNormalizeShards(t *testing.T) {
	g := expGraph(t, 300, 32)
	for _, c := range []struct{ workers, want int }{
		{3, 3},
		{1, 1},
		{0, runtime.GOMAXPROCS(0)},
		{-1, runtime.GOMAXPROCS(0)},
	} {
		if r := newLegRunner(g, legOptions{workers: c.workers}); len(r.shards) != c.want {
			t.Fatalf("workers=%d built %d shards, want %d", c.workers, len(r.shards), c.want)
		}
	}
}

// TestShardInvarianceSamplePairs is the tentpole differential: for every
// shard count the pair sweep must be DeepEqual to the three-worker run —
// the TSV downstream is then byte-identical by construction.
func TestShardInvarianceSamplePairs(t *testing.T) {
	g := expGraph(t, 400, 31)
	base := PairConfig{Kind: PairsRandom, N: 25, Prepend: 3, Seed: 7, Workers: 3}
	want, err := SamplePairsCtx(context.Background(), g, base)
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	for _, shards := range shardCounts {
		cfg := base
		cfg.Workers = shards
		got, err := SamplePairsCtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d diverges from default", shards)
		}
	}
}

// TestShardInvarianceSweepPrepend: λ-block sharding of the prepend sweep
// is invariant too, including shard counts above MaxLambda (empty shards).
func TestShardInvarianceSweepPrepend(t *testing.T) {
	g := expGraph(t, 400, 31)
	t1 := g.Tier1s()
	if len(t1) < 2 {
		t.Skip("need two tier-1 ASes")
	}
	cfg := SweepConfig{Victim: t1[0], Attacker: t1[1], MaxLambda: 12}
	withGOMAXPROCS(t, 3)
	want, err := SweepPrependCfgCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	for _, shards := range shardCounts {
		withGOMAXPROCS(t, shards)
		got, err := SweepPrependCfgCtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d diverges from default", shards)
		}
	}
}

// TestShardInvarianceSusceptibility: the victim-sharded tier matrix is
// invariant across shard counts.
func TestShardInvarianceSusceptibility(t *testing.T) {
	g := expGraph(t, 400, 31)
	cfg := DefaultSusceptibilityConfig()
	cfg.PairsPerCell = 6
	withGOMAXPROCS(t, 3)
	want, err := SusceptibilityMatrixCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	for _, shards := range shardCounts {
		withGOMAXPROCS(t, shards)
		got, err := SusceptibilityMatrixCtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d diverges from default", shards)
		}
	}
}

// TestSamplePairsBatchedLegsIdentical: PairConfig's Batch, Shards and
// MemBudget are deprecated and ignored — bench still sets them — so a pair
// sweep with them, negative ones included, equals one without, at both
// pair kinds.
func TestSamplePairsBatchedLegsIdentical(t *testing.T) {
	g := expGraph(t, 260, 11)
	for _, kind := range []PairKind{PairsTier1, PairsRandom} {
		base := PairConfig{Kind: kind, N: 40, Prepend: 3, Seed: 7, Workers: 2}
		want, err := SamplePairsCtx(context.Background(), g, base)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		for _, dep := range [][3]int{{8, 7, 8 << 10}, {-1, -1, -1}} {
			cfg := base
			cfg.Batch, cfg.Shards, cfg.MemBudget = dep[0], dep[1], int64(dep[2])
			if got, err := SamplePairsCtx(context.Background(), g, cfg); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("kind %d: Batch/Shards/MemBudget %v changed the ranking (err %v)", kind, dep, err)
			}
		}
	}
}

// TestSusceptibilityBatchedLegsIdentical: SusceptibilityConfig's Batch,
// Shards and MemBudget are deprecated and ignored too.
func TestSusceptibilityBatchedLegsIdentical(t *testing.T) {
	g := expGraph(t, 220, 19)
	base := DefaultSusceptibilityConfig()
	base.PairsPerCell = 6
	want, err := SusceptibilityMatrixCtx(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range [][3]int{{8, 7, 8 << 10}, {-1, -1, -1}} {
		cfg := base
		cfg.Batch, cfg.Shards, cfg.MemBudget = dep[0], dep[1], int64(dep[2])
		if got, err := SusceptibilityMatrixCtx(context.Background(), g, cfg); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("Batch/Shards/MemBudget %v changed the matrix (err %v)", dep, err)
		}
	}
}

// TestBatchedSweepPropagationConservation is the counter-attribution audit
// under the deprecated Batch field: every baseline miss is one prop_base,
// every simulated leg one prop_delta, nothing lands in prop_batch, and the
// snapshot equals the run without Batch.
func TestBatchedSweepPropagationConservation(t *testing.T) {
	g := expGraph(t, 260, 11)
	run := func(batch int) obs.Snapshot {
		c := &obs.Counters{}
		cfg := PairConfig{Kind: PairsRandom, N: 60, Prepend: 3, Seed: 21, Workers: 2, Counters: c, Batch: batch}
		if _, err := SamplePairsCtx(context.Background(), g, cfg); err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		return c.Snapshot()
	}
	s := run(16)
	if s.BasePropagations != s.BaselineMisses || s.DeltaPropagations != 60 || s.FullPropagations != 0 || s.BatchPropagations != 0 {
		t.Errorf("prop_base=%d cache_miss=%d prop_delta=%d prop_full=%d prop_batch=%d, want prop_base == cache_miss, 60 delta legs and nothing else",
			s.BasePropagations, s.BaselineMisses, s.DeltaPropagations, s.FullPropagations, s.BatchPropagations)
	}
	if serial := run(0); s != serial {
		t.Errorf("Batch 16 moved the counters:\n batch: %v\nserial: %v", s, serial)
	}
}

// TestShardFirstErrorDeterministic: with an injected per-victim baseline
// fault, two identical runs report the identical error — the
// lowest-shard-index failure, independent of worker scheduling.
func TestShardFirstErrorDeterministic(t *testing.T) {
	g := expGraph(t, 300, 32)
	orig := propagateBaseline
	defer func() { propagateBaseline = orig }()
	propagateBaseline = func(_ *topology.Graph, ann routing.Announcement, _ *routing.Scratch) (*routing.Result, error) {
		return nil, fmt.Errorf("injected fault for victim %v", ann.Origin)
	}
	cfg := PairConfig{Kind: PairsRandom, N: 10, Prepend: 3, Seed: 9, Workers: 7}
	_, err1 := SamplePairsCtx(context.Background(), g, cfg)
	_, err2 := SamplePairsCtx(context.Background(), g, cfg)
	if err1 == nil || err2 == nil {
		t.Fatal("injected baseline fault swallowed")
	}
	if !errors.Is(err1, ErrBaselineFailed) {
		t.Fatalf("err=%v, want errors.Is(..., ErrBaselineFailed)", err1)
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("first error nondeterministic:\n  %v\n  %v", err1, err2)
	}
}

// TestSweepLowestLambdaErrorWins pins the λ sweep's all-fatal contract on
// top of the lowest-shard rule: shards own contiguous λ blocks, so when two
// λ steps in different shards fail, the lower λ is the one reported.
func TestSweepLowestLambdaErrorWins(t *testing.T) {
	g := expGraph(t, 300, 32)
	orig := propagateBaseline
	defer func() { propagateBaseline = orig }()
	propagateBaseline = func(gg *topology.Graph, ann routing.Announcement, s *routing.Scratch) (*routing.Result, error) {
		if ann.Prepend == 3 || ann.Prepend == 7 {
			return nil, fmt.Errorf("injected fault at λ=%d", ann.Prepend)
		}
		return orig(gg, ann, s)
	}
	t1 := g.Tier1s()
	withGOMAXPROCS(t, 4)
	for run := 0; run < 5; run++ {
		_, err := SweepPrependCfgCtx(context.Background(), g, SweepConfig{
			Victim: t1[0], Attacker: t1[1], MaxLambda: 8,
		})
		if !errors.Is(err, ErrBaselineFailed) || !strings.Contains(err.Error(), "injected fault at λ=3") {
			t.Fatalf("run %d: err=%v, want the λ=3 baseline failure", run, err)
		}
	}
}

// TestShardMidShardCancellation: a context cancelled while a shard is
// mid-candidate aborts between candidates with context.Canceled — the
// shard does not run to completion first.
func TestShardMidShardCancellation(t *testing.T) {
	g := expGraph(t, 300, 32)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	orig := propagateBaseline
	defer func() { propagateBaseline = orig }()
	calls := 0
	propagateBaseline = func(gg *topology.Graph, ann routing.Announcement, s *routing.Scratch) (*routing.Result, error) {
		calls++
		if calls == 2 {
			cancel() // second victim's baseline pulls the plug mid-shard
		}
		return orig(gg, ann, s)
	}
	cfg := PairConfig{Kind: PairsRandom, N: 20, Prepend: 3, Seed: 9, Workers: 1}
	_, err := SamplePairsCtx(ctx, g, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want errors.Is(..., context.Canceled)", err)
	}
	if calls >= 20 {
		t.Fatalf("shard ran %d baselines to completion despite cancellation", calls)
	}
}

// TestShardGaugesWithinBudget: every sweep records the memory gauges, and
// a shard holds one baseline, that of the victim it is on — so the
// cache_bytes high-watermark stays within one baseline's bytes on a pair
// sweep and on the detection draw, whose rounds revisit victims, at any
// worker count.
func TestShardGaugesWithinBudget(t *testing.T) {
	g := expGraph(t, 400, 31)
	one, err := routing.Propagate(g, routing.Announcement{Origin: g.Tier1s()[0], Prepend: 1})
	if err != nil {
		t.Fatal(err)
	}
	budget := one.MemoryBytes()
	for _, workers := range []int{0, 1, 3} {
		pairs, detection := new(obs.Counters), new(obs.Counters)
		if _, err := SamplePairsCtx(context.Background(), g, PairConfig{
			Kind: PairsRandom, N: 25, Prepend: 3, Seed: 7, Workers: workers, Counters: pairs,
		}); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultDetectionConfig()
		cfg.Pairs, cfg.Counters = 40, detection
		withGOMAXPROCS(t, workers)
		if _, err := RunDetectionCtx(context.Background(), g, cfg); err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*obs.Counters{"pair sweep": pairs, "detection": detection} {
			s := c.Snapshot()
			if s.CacheBytes <= 0 || s.ScratchBytes <= 0 || s.CSRBytes != g.MemoryBytes() {
				t.Fatalf("%s, workers=%d: gauges not recorded: cache=%d scratch=%d csr=%d (graph %d)",
					name, workers, s.CacheBytes, s.ScratchBytes, s.CSRBytes, g.MemoryBytes())
			}
			if s.CacheBytes > budget {
				t.Errorf("%s, workers=%d: cache_bytes %d exceeds one baseline's %d", name, workers, s.CacheBytes, budget)
			}
		}
	}
}
