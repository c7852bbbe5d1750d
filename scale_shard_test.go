package aspp

// Internet-scale sharded sweeps (DESIGN §5f). The 80k tests generate the
// canonical internet80k topology (pinned by TestInternet80kDigest) and
// run the pair sweep through the sharded, byte-budgeted path. They are
// gated behind ASPP_SCALE=1 — `make scale-smoke` (part of `make check`)
// runs them; a plain `go test ./...` skips them to stay fast.

import (
	"context"
	"os"
	"runtime"
	"testing"
	"time"

	"aspp/internal/core"
	"aspp/internal/experiment"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

func scaleGate(tb testing.TB) {
	if os.Getenv("ASPP_SCALE") == "" {
		tb.Skip("80k scale run gated behind ASPP_SCALE=1 (make scale-smoke)")
	}
}

func internet80k(tb testing.TB) *Internet {
	tb.Helper()
	in, err := NewInternet(WithGenConfig(topology.InternetGenConfig(topology.Internet80kASes)))
	if err != nil {
		tb.Fatalf("internet80k: %v", err)
	}
	return in
}

// TestScale80kPairSweepWithinBudget is the scale-smoke gate: a reduced
// tier-1 pair sweep over the full 80k topology, sharded with an explicit
// per-shard cache budget, must complete and the recorded memory gauges
// must respect that budget. This is the ISSUE's acceptance criterion
// that an Internet-scale sweep's working set is bounded by configuration,
// not by the victim count.
func TestScale80kPairSweepWithinBudget(t *testing.T) {
	scaleGate(t)
	const budget = 64 << 20 // per-shard baseline-cache cap
	in := internet80k(t)
	c := new(Counters)
	start := time.Now()
	pairs, err := in.SamplePairsCtx(context.Background(), PairConfig{
		Kind: PairsTier1, N: 24, Prepend: 3, Seed: 1,
		Workers: runtime.NumCPU(),
		Shards:  4, MemBudget: budget, Counters: c,
	})
	if err != nil {
		t.Fatalf("80k pair sweep: %v", err)
	}
	if len(pairs) != 24 {
		t.Fatalf("got %d pairs, want 24", len(pairs))
	}
	for i, p := range pairs {
		if p.After < 0 || p.After > 1 {
			t.Fatalf("pair %d pollution out of range: %+v", i, p)
		}
	}
	s := c.Snapshot()
	t.Logf("80k sweep: %v; cache_bytes=%d (budget %d) scratch_bytes=%d csr_bytes=%d",
		time.Since(start).Round(time.Millisecond), s.CacheBytes, int64(budget), s.ScratchBytes, s.CSRBytes)
	if s.CacheBytes <= 0 || s.ScratchBytes <= 0 || s.CSRBytes <= 0 {
		t.Fatalf("memory gauges not recorded: %+v", s)
	}
	if s.CacheBytes > budget {
		t.Fatalf("cache_bytes %d exceeds per-shard budget %d", s.CacheBytes, budget)
	}
}

// TestScale80kSusceptibilityWork is a count gate, not a time gate: the
// default tier matrix on internet80k simulates exactly the 9 cells × 12
// instances it prints — no oversampled leg, no baseline nobody reads — and
// the baselines it keeps warm across its rounds stay under 128 MB.
func TestScale80kSusceptibilityWork(t *testing.T) {
	scaleGate(t)
	in := internet80k(t)
	c := new(Counters)
	cfg := DefaultSusceptibilityConfig()
	cfg.Counters = c
	cells, err := in.SusceptibilityMatrixCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("80k susceptibility matrix: %v", err)
	}
	want := int64(len(cells) * cfg.PairsPerCell)
	s := c.Snapshot()
	t.Logf("80k matrix: %d cells, prop_delta=%d prop_base=%d skip_unreachable=%d cache_bytes=%d",
		len(cells), s.DeltaPropagations, s.BasePropagations, s.SkippedUnreachable, s.CacheBytes)
	if len(cells) != 9 || s.DeltaPropagations != want || s.AttackPropagations() != want {
		t.Errorf("%d cells, prop_delta=%d of %d attack legs, want 9 cells and %d delta legs", len(cells), s.DeltaPropagations, s.AttackPropagations(), want)
	}
	if s.BasePropagations > want || s.SkippedUnreachable != 0 {
		t.Errorf("prop_base=%d skip_unreachable=%d, want <= %d baselines and no skips", s.BasePropagations, s.SkippedUnreachable, want)
	}
	if s.CacheBytes <= 0 || s.CacheBytes >= 128<<20 {
		t.Errorf("cache_bytes=%d, want a recorded peak under 128 MB", s.CacheBytes)
	}
}

// TestScale80kConeCountsMatchFullKernel checks the sweep's answers at the
// scale it runs (ROADMAP 5b): 60 fig7-style tier-1 legs and 50 random
// violating ones on internet80k, simulated the way the figures are — shard
// caches, the delta kernel, pollution counted over the attacker's cone —
// must report exactly the fractions an O(n) recount reads off a fresh
// baseline and a full-kernel attack propagation.
func TestScale80kConeCountsMatchFullKernel(t *testing.T) {
	scaleGate(t)
	in := internet80k(t)
	g := in.Graph()
	s := routing.NewScratch()
	legs := 0
	for _, cfg := range []PairConfig{
		{Kind: PairsTier1, N: 60, Prepend: 3, Seed: 1},
		{Kind: PairsRandom, N: 50, Prepend: 3, Violate: true, Seed: 1},
	} {
		pairs, err := in.SamplePairsCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("80k pair sweep: %v", err)
		}
		for _, p := range pairs {
			ann := routing.Announcement{Origin: p.Victim, Prepend: cfg.Prepend}
			base, err := routing.PropagateScratch(g, ann, s)
			if err != nil {
				t.Fatal(err)
			}
			atk := routing.Attacker{AS: p.Attacker, ViolateValleyFree: cfg.Violate}
			attacked, err := routing.PropagateAttackScratch(g, ann, atk, base, s)
			if err != nil {
				t.Fatal(err)
			}
			aIdx, _ := g.Index(p.Attacker)
			var want core.Counts
			for i := int32(0); i < int32(g.NumASes()); i++ {
				if i == base.OriginIdx() || i == aIdx || !base.ReachableIdx(i) {
					continue
				}
				want.Eligible++
				for j := base.Parent[i]; j != base.OriginIdx(); j = base.Parent[j] {
					if j == aIdx {
						want.PollutedBefore++
						break
					}
				}
				if attacked.Via[i] {
					want.PollutedAfter++
				}
			}
			if p.Before != want.Before() || p.After != want.After() {
				t.Errorf("%v hijacks %v (violate=%v): sweep reports %v -> %v, O(n) recount over the full kernel %v -> %v (%+v)",
					p.Attacker, p.Victim, cfg.Violate, p.Before, p.After, want.Before(), want.After(), want)
			}
			legs++
		}
	}
	if legs < 100 {
		t.Fatalf("only %d legs checked", legs)
	}
}

// TestScale80kLambdaSweepPropagatesVictimOnce: a fig9 sweep at two shards
// propagates the victim at most once per shard — the other λ are shifts,
// counted as hits — and prints what eight propagations print.
func TestScale80kLambdaSweepPropagatesVictimOnce(t *testing.T) {
	scaleGate(t)
	in := internet80k(t)
	victim, err := experiment.PickTier1ByDegree(in.Graph(), 0)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := experiment.PickTier1ByDegree(in.Graph(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func(shards int) ([]SweepPoint, obs.Snapshot) {
		c := new(Counters)
		points, err := in.SweepPrependCfgCtx(context.Background(), SweepConfig{
			Victim: victim, Attacker: attacker, MaxLambda: 8, Shards: shards, Counters: c,
		})
		if err != nil {
			t.Fatalf("80k λ sweep at %d shards: %v", shards, err)
		}
		return points, c.Snapshot()
	}
	points, s := sweep(2)
	if s.BasePropagations > 2 || s.BaselineMisses != s.BasePropagations || s.BaselineHits != 8-s.BasePropagations || s.DeltaPropagations != 8 {
		t.Errorf("two shards: prop_base=%d cache_miss=%d cache_hit=%d prop_delta=%d, want at most 2 propagations, the rest of 8 hits, 8 delta legs",
			s.BasePropagations, s.BaselineMisses, s.BaselineHits, s.DeltaPropagations)
	}
	each, s8 := sweep(8) // one λ a shard: nothing to shift from
	if s8.BasePropagations != 8 {
		t.Fatalf("eight shards: prop_base=%d, want 8", s8.BasePropagations)
	}
	for i := range each {
		if points[i] != each[i] {
			t.Errorf("λ=%d: shifted baseline gives %+v, propagated %+v", i+1, points[i], each[i])
		}
	}
}
