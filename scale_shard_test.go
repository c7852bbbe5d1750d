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
		Workers: runtime.NumCPU(), Batch: 16,
		Shards: 4, MemBudget: budget, Counters: c,
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
