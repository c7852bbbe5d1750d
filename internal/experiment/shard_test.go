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

// shardCounts is the shard-count grid of the invariance differential:
// trivial (1), even split (2), prime (7), and more shards than most
// sweeps have victims (32) — empty shards must be harmless.
var shardCounts = []int{1, 2, 7, 32}

// TestNormalizeShards pins the shard-count rule end to end, on the shard
// states newLegRunner actually builds: explicit Shards stands, MemBudget
// alone implies one budgeted shard, and Shards == 0 derives one shard per
// effective worker.
func TestNormalizeShards(t *testing.T) {
	g := expGraph(t, 300, 32)
	cases := []struct {
		shards  int
		budget  int64
		workers int
		want    int
		wantErr bool
	}{
		{0, 0, 3, 3, false}, // default: one shard per worker
		{0, 0, 0, runtime.GOMAXPROCS(0), false},
		{3, 0, 8, 3, false},       // explicit shards, unbounded caches
		{0, 1 << 20, 8, 1, false}, // budget alone implies one budgeted shard
		{5, 1 << 20, 2, 5, false},
		{-1, 0, 1, 0, true},
		{0, -1, 1, 0, true},
	}
	for _, c := range cases {
		r, err := newLegRunner(g, legOptions{shards: c.shards, memBudget: c.budget, workers: c.workers})
		if (err != nil) != c.wantErr {
			t.Fatalf("shards=%d budget=%d workers=%d: err=%v, wantErr=%v", c.shards, c.budget, c.workers, err, c.wantErr)
		}
		if err == nil && len(r.shards) != c.want {
			t.Fatalf("shards=%d budget=%d workers=%d built %d shards, want %d", c.shards, c.budget, c.workers, len(r.shards), c.want)
		}
	}
}

// TestShardInvarianceSamplePairs is the tentpole differential: for every
// shard count, with and without a tight eviction-heavy byte budget, the
// pair sweep must be DeepEqual to the default (Shards: 0, one shard per
// worker) run — the TSV downstream is then byte-identical by construction.
func TestShardInvarianceSamplePairs(t *testing.T) {
	g := expGraph(t, 400, 31)
	base := PairConfig{Kind: PairsRandom, N: 25, Prepend: 3, Seed: 7, Workers: 3}
	want, err := SamplePairsCtx(context.Background(), g, base)
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	for _, shards := range shardCounts {
		for _, budget := range []int64{0, 8 << 10} { // unbounded and eviction-heavy
			cfg := base
			cfg.Shards, cfg.MemBudget = shards, budget
			got, err := SamplePairsCtx(context.Background(), g, cfg)
			if err != nil {
				t.Fatalf("shards=%d budget=%d: %v", shards, budget, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d budget=%d diverges from default", shards, budget)
			}
		}
	}
}

// TestShardInvarianceSweepPrepend: λ-block sharding of the prepend sweep
// is invariant too, including shard counts above MaxLambda (clamped).
func TestShardInvarianceSweepPrepend(t *testing.T) {
	g := expGraph(t, 400, 31)
	t1 := g.Tier1s()
	if len(t1) < 2 {
		t.Skip("need two tier-1 ASes")
	}
	base := SweepConfig{Victim: t1[0], Attacker: t1[1], MaxLambda: 12, Workers: 3}
	want, err := SweepPrependCfgCtx(context.Background(), g, base)
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	for _, shards := range shardCounts {
		cfg := base
		cfg.Shards, cfg.MemBudget = shards, 8<<10
		got, err := SweepPrependCfgCtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d diverges from default", shards)
		}
	}
}

// TestShardInvarianceSusceptibility: victim-sharded tier matrix is
// invariant across shard counts and budgets.
func TestShardInvarianceSusceptibility(t *testing.T) {
	g := expGraph(t, 400, 31)
	base := DefaultSusceptibilityConfig()
	base.PairsPerCell, base.Workers = 6, 3
	want, err := SusceptibilityMatrixCtx(context.Background(), g, base)
	if err != nil {
		t.Fatalf("default: %v", err)
	}
	for _, shards := range shardCounts {
		cfg := base
		cfg.Shards, cfg.MemBudget = shards, 8<<10
		got, err := SusceptibilityMatrixCtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d diverges from default", shards)
		}
	}
}

// TestSamplePairsBatchedLegsIdentical: PairConfig.Batch is deprecated and
// ignored — bench still sets it — so a pair sweep with it equals one
// without, at both pair kinds.
func TestSamplePairsBatchedLegsIdentical(t *testing.T) {
	g := expGraph(t, 260, 11)
	for _, kind := range []PairKind{PairsTier1, PairsRandom} {
		base := PairConfig{Kind: kind, N: 40, Prepend: 3, Seed: 7, Workers: 2}
		want, err := SamplePairsCtx(context.Background(), g, base)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		cfg := base
		cfg.Batch = 8
		if got, err := SamplePairsCtx(context.Background(), g, cfg); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("kind %d: Batch 8 changed the ranking (err %v)", kind, err)
		}
	}
}

// TestSusceptibilityBatchedLegsIdentical: SusceptibilityConfig.Batch is
// deprecated and ignored too.
func TestSusceptibilityBatchedLegsIdentical(t *testing.T) {
	g := expGraph(t, 220, 19)
	base := DefaultSusceptibilityConfig()
	base.PairsPerCell = 6
	want, err := SusceptibilityMatrixCtx(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Batch = 8
	if got, err := SusceptibilityMatrixCtx(context.Background(), g, cfg); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("Batch 8 changed the matrix (err %v)", err)
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

// TestShardMemBudgetImpliesSharding: MemBudget alone routes through one
// budgeted shard and still matches the default run.
func TestShardMemBudgetImpliesSharding(t *testing.T) {
	g := expGraph(t, 300, 32)
	base := PairConfig{Kind: PairsRandom, N: 15, Prepend: 3, Seed: 9, Workers: 2}
	want, err := SamplePairsCtx(context.Background(), g, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.MemBudget = 16 << 10
	got, err := SamplePairsCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("MemBudget-only run diverges from the default run")
	}
}

// TestShardConfigValidation: negative shard counts and budgets are
// rejected by every leg-running driver.
func TestShardConfigValidation(t *testing.T) {
	g := expGraph(t, 300, 32)
	if _, err := SamplePairsCtx(context.Background(), g, PairConfig{Kind: PairsRandom, N: 5, Prepend: 3, Seed: 1, Shards: -1}); err == nil {
		t.Fatal("negative Shards accepted by SamplePairs")
	}
	if _, err := SweepPrependCfgCtx(context.Background(), g, SweepConfig{
		Victim: g.Tier1s()[0], Attacker: g.Tier1s()[1], MaxLambda: 3, MemBudget: -5,
	}); err == nil {
		t.Fatal("negative MemBudget accepted by SweepPrependCfgCtx")
	}
	cfg := DefaultSusceptibilityConfig()
	cfg.Shards = -2
	if _, err := SusceptibilityMatrixCtx(context.Background(), g, cfg); err == nil {
		t.Fatal("negative Shards accepted by SusceptibilityMatrix")
	}
}

// TestShardFirstErrorDeterministic: with an injected per-victim baseline
// fault, two identical runs report the identical error — the
// lowest-shard-index failure, independent of worker scheduling.
func TestShardFirstErrorDeterministic(t *testing.T) {
	g := expGraph(t, 300, 32)
	orig := ownedBaseline
	defer func() { ownedBaseline = orig }()
	ownedBaseline = func(_ *topology.Graph, ann routing.Announcement, _ *routing.Scratch) (*routing.Result, error) {
		return nil, fmt.Errorf("injected fault for victim %v", ann.Origin)
	}
	cfg := PairConfig{Kind: PairsRandom, N: 10, Prepend: 3, Seed: 9, Workers: 4, Shards: 7}
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
	orig := ownedBaseline
	defer func() { ownedBaseline = orig }()
	ownedBaseline = func(gg *topology.Graph, ann routing.Announcement, s *routing.Scratch) (*routing.Result, error) {
		if ann.Prepend == 3 || ann.Prepend == 7 {
			return nil, fmt.Errorf("injected fault at λ=%d", ann.Prepend)
		}
		return orig(gg, ann, s)
	}
	t1 := g.Tier1s()
	for run := 0; run < 5; run++ {
		_, err := SweepPrependCfgCtx(context.Background(), g, SweepConfig{
			Victim: t1[0], Attacker: t1[1], MaxLambda: 8, Workers: 4, Shards: 4,
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
	orig := ownedBaseline
	defer func() { ownedBaseline = orig }()
	calls := 0
	ownedBaseline = func(gg *topology.Graph, ann routing.Announcement, s *routing.Scratch) (*routing.Result, error) {
		calls++
		if calls == 2 {
			cancel() // second victim's baseline pulls the plug mid-shard
		}
		return orig(gg, ann, s)
	}
	cfg := PairConfig{Kind: PairsRandom, N: 20, Prepend: 3, Seed: 9, Workers: 1, Shards: 1}
	_, err := SamplePairsCtx(ctx, g, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want errors.Is(..., context.Canceled)", err)
	}
	if calls >= 20 {
		t.Fatalf("shard ran %d baselines to completion despite cancellation", calls)
	}
}

// TestShardGaugesWithinBudget: every sweep records the memory gauges —
// on the default config too, where the cache is unbudgeted (the gauges
// used to read 0 there) — and under a budget the cache high-watermark
// respects the per-shard cap (the scale-smoke invariant, at test scale).
func TestShardGaugesWithinBudget(t *testing.T) {
	g := expGraph(t, 400, 31)
	const budget = 1 << 20
	for _, cfg := range []PairConfig{
		{Kind: PairsRandom, N: 25, Prepend: 3, Seed: 7},
		{Kind: PairsRandom, N: 25, Prepend: 3, Seed: 7, Workers: 3, Shards: 2, MemBudget: budget},
	} {
		c := new(obs.Counters)
		cfg.Counters = c
		if _, err := SamplePairsCtx(context.Background(), g, cfg); err != nil {
			t.Fatal(err)
		}
		s := c.Snapshot()
		if s.CacheBytes <= 0 || s.ScratchBytes <= 0 || s.CSRBytes <= 0 {
			t.Fatalf("budget=%d: gauges not recorded: cache=%d scratch=%d csr=%d",
				cfg.MemBudget, s.CacheBytes, s.ScratchBytes, s.CSRBytes)
		}
		if cfg.MemBudget > 0 && s.CacheBytes > cfg.MemBudget {
			t.Fatalf("cache_bytes %d exceeds per-shard budget %d", s.CacheBytes, cfg.MemBudget)
		}
		if s.CSRBytes != g.MemoryBytes() {
			t.Fatalf("csr_bytes = %d, want graph footprint %d", s.CSRBytes, g.MemoryBytes())
		}
	}
}

// TestBaselineCacheBudgetEviction: unit coverage of the FIFO budget —
// bytes stay within budget once past the keep floor, evicted entries
// recompute as fresh misses, release empties but keeps the peak.
func TestBaselineCacheBudgetEviction(t *testing.T) {
	g := expGraph(t, 300, 32)
	asns := g.ASNs()
	one, err := routing.Propagate(g, routing.Announcement{Origin: asns[0], Prepend: 1})
	if err != nil {
		t.Fatal(err)
	}
	entry := one.MemoryBytes()
	c := new(obs.Counters)
	// Budget fits ~3 entries.
	cache := newBaselineCache(g, c, routing.NewScratch(), 3*entry+entry/2)
	for i := 0; i < 8; i++ {
		if _, err := cache.get(asns[i], 1); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if cache.bytes > 3*entry+entry/2 {
		t.Fatalf("bytes = %d exceeds budget %d", cache.bytes, 3*entry+entry/2)
	}
	if len(cache.m) >= 8 {
		t.Fatalf("no eviction happened: %d entries", len(cache.m))
	}
	if cache.peak < cache.bytes || cache.peak <= 0 {
		t.Fatalf("peak=%d inconsistent with bytes=%d", cache.peak, cache.bytes)
	}
	missesBefore := c.Snapshot().BaselineMisses
	if _, err := cache.get(asns[0], 1); err != nil { // evicted long ago
		t.Fatal(err)
	}
	if got := c.Snapshot().BaselineMisses; got != missesBefore+1 {
		t.Fatalf("evicted key re-Get misses = %d, want %d", got, missesBefore+1)
	}
	peak := cache.peak
	cache.release()
	if len(cache.m) != 0 || cache.bytes != 0 {
		t.Fatalf("release left %d entries, %d bytes", len(cache.m), cache.bytes)
	}
	if cache.peak != peak {
		t.Fatalf("release dropped peak: %d -> %d", peak, cache.peak)
	}
	// Post-release the cache is reusable.
	if _, err := cache.get(asns[1], 1); err != nil {
		t.Fatal(err)
	}
}

// TestBaselineCacheKeepFloor: the newest entry survives even when it alone
// exceeds the budget — it is the Result get is about to lend.
func TestBaselineCacheKeepFloor(t *testing.T) {
	g := expGraph(t, 300, 32)
	asns := g.ASNs()
	cache := newBaselineCache(g, nil, routing.NewScratch(), 1) // budget of one byte
	for i := 0; i < 6; i++ {
		res, err := cache.get(asns[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(cache.m) != 1 || cache.m[baselineKey{asns[i], 1}] != res {
			t.Fatalf("get %d: %d entries, want just the one it lent", i, len(cache.m))
		}
	}
}
