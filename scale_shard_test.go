package aspp

// Internet-scale sharded sweeps (DESIGN §5f). The 80k tests generate the
// canonical internet80k topology (pinned by TestInternet80kDigest) and
// run the pair sweep through the sharded path, one baseline a shard. They are
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

// withGOMAXPROCS sets GOMAXPROCS, and with it the shard count of every
// sweep that has no Workers of its own, for the rest of the test.
func withGOMAXPROCS(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// oneBaselineBytes is the footprint of one internet80k baseline: what a
// sweep shard holds, and so the bound on the cache_bytes gauge.
func oneBaselineBytes(t *testing.T, in *Internet) int64 {
	t.Helper()
	g := in.Graph()
	res, err := routing.Propagate(g, routing.Announcement{Origin: g.Tier1s()[0], Prepend: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res.MemoryBytes()
}

// TestScale80kPairSweepWithinBudget is the scale-smoke gate: a reduced
// tier-1 pair sweep over the full 80k topology must complete, and the
// recorded memory gauges must show each shard holding at most one
// baseline — an Internet-scale sweep's working set is bounded by the
// shard count, not by the victim count.
func TestScale80kPairSweepWithinBudget(t *testing.T) {
	scaleGate(t)
	in := internet80k(t)
	budget := oneBaselineBytes(t, in)
	c := new(Counters)
	start := time.Now()
	pairs, err := in.SamplePairsCtx(context.Background(), PairConfig{
		Kind: PairsTier1, N: 24, Prepend: 3, Seed: 1,
		Workers: runtime.NumCPU(), Counters: c,
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
	t.Logf("80k sweep: %v; cache_bytes=%d (one baseline %d) scratch_bytes=%d csr_bytes=%d",
		time.Since(start).Round(time.Millisecond), s.CacheBytes, budget, s.ScratchBytes, s.CSRBytes)
	if s.CacheBytes <= 0 || s.ScratchBytes <= 0 || s.CSRBytes <= 0 {
		t.Fatalf("memory gauges not recorded: %+v", s)
	}
	if s.CacheBytes > budget {
		t.Fatalf("cache_bytes %d exceeds one baseline's %d", s.CacheBytes, budget)
	}
}

// TestScale80kSusceptibilityWork is a count gate, not a time gate: the
// default tier matrix on internet80k simulates exactly the 9 cells × 12
// instances it prints — no oversampled leg, no baseline nobody reads — and
// each shard holds at most one baseline, across its rounds too.
func TestScale80kSusceptibilityWork(t *testing.T) {
	scaleGate(t)
	in := internet80k(t)
	budget := oneBaselineBytes(t, in)
	c := new(Counters)
	cfg := experiment.DefaultSusceptibilityConfig()
	cfg.Counters = c
	cells, err := experiment.SusceptibilityMatrixCtx(context.Background(), in.Graph(), cfg)
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
	if s.CacheBytes <= 0 || s.CacheBytes > budget {
		t.Errorf("cache_bytes=%d, want a recorded peak of at most one baseline, %d", s.CacheBytes, budget)
	}
}

// TestScale80kConeCountsMatchFullKernel checks the sweep's answers at the
// scale it runs (ROADMAP 5b): 60 fig7-style tier-1 legs and 50 random
// violating ones on internet80k, simulated the way the figures are — shard
// baselines, the delta kernel, pollution counted over the attacker's cone —
// must report exactly the fractions an O(n) recount reads off a fresh
// baseline and a full-kernel attack propagation. Each of those legs, and
// 16 more tier-1-hijacks-tier-1 legs at λ ∈ {1,3,5,8} run against one
// standalone baseline per λ (so the delta slot is repaired between them), is
// also propagated on the delta engine and compared with the full kernel
// row for row; at least one cone must reach 40,000 rows.
func TestScale80kConeCountsMatchFullKernel(t *testing.T) {
	scaleGate(t)
	in := internet80k(t)
	g := in.Graph()
	s := routing.NewScratch()
	legs, maxCone := 0, 0
	// deltaMatches runs atk on the delta engine and holds every row to the
	// full kernel's attacked.
	deltaMatches := func(ann routing.Announcement, atk routing.Attacker, base, attacked *routing.Result) {
		t.Helper()
		delta, err := routing.PropagateAttackDelta(g, ann, atk, base, s)
		if err != nil {
			t.Fatal(err)
		}
		maxCone = max(maxCone, len(s.DeltaCone()))
		bad := 0
		for i := range attacked.Class {
			if delta.Class[i] != attacked.Class[i] || delta.Len[i] != attacked.Len[i] || delta.Prep[i] != attacked.Prep[i] ||
				delta.Parent[i] != attacked.Parent[i] || delta.Via[i] != attacked.Via[i] {
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("%v hijacks %v (λ=%d violate=%v): %d of %d delta rows differ from the full kernel's",
				atk.AS, ann.Origin, ann.Prepend, atk.ViolateValleyFree, bad, len(attacked.Class))
		}
		legs++
	}
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
			deltaMatches(ann, atk, base, attacked)
		}
	}
	victim, err := experiment.PickTier1ByDegree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []int{1, 3, 5, 8} {
		ann := routing.Announcement{Origin: victim, Prepend: lambda}
		base, err := routing.Propagate(g, ann)
		if err != nil {
			t.Fatal(err)
		}
		for rank := 1; rank <= 4; rank++ {
			attacker, err := experiment.PickTier1ByDegree(g, rank)
			if err != nil {
				t.Fatal(err)
			}
			atk := routing.Attacker{AS: attacker}
			attacked, err := routing.PropagateAttackScratch(g, ann, atk, base, s)
			if err != nil {
				t.Fatal(err)
			}
			deltaMatches(ann, atk, base, attacked)
		}
	}
	t.Logf("%d legs checked row for row, largest cone %d rows", legs, maxCone)
	if legs < 126 {
		t.Fatalf("only %d legs checked, want 126", legs)
	}
	if maxCone < 40000 {
		t.Errorf("largest cone %d rows, want a leg of at least 40,000", maxCone)
	}
}

// TestScale80kLambdaSweepPropagatesVictimOnce: a fig9 sweep at two shards
// (two workers) propagates the victim at most once per shard — the other λ
// are shifts, counted as hits — and prints what eight propagations print.
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
		withGOMAXPROCS(t, shards)
		points, err := experiment.SweepPrependCfgCtx(context.Background(), in.Graph(), SweepConfig{
			Victim: victim, Attacker: attacker, MaxLambda: 8, Counters: c,
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

// deltaSink keeps BenchmarkDelta80k's results live.
var deltaSink *routing.Result

// BenchmarkDelta80k times one attack leg on internet80k against a warm
// baseline, by cone size, each on the delta engine and on the full kernel:
// a stub attacker, whose cone is empty (it holds no customer route to
// strip and has no customers), so the delta leg is the engine's fixed
// cost, and a tier-1 hijacking another tier-1 at λ=3, a cone of 32,530
// rows. The baseline is one object reused across iterations, so the delta
// legs take the repair path the sweeps take when a baseline serves several
// legs. Gated behind ASPP_SCALE like the other 80k runs:
//
//	ASPP_SCALE=1 go test -run='^$' -bench=Delta80k -benchtime=200x .
func BenchmarkDelta80k(b *testing.B) {
	scaleGate(b)
	g := internet80k(b).Graph()
	victim, err := experiment.PickTier1ByDegree(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	big, err := experiment.PickTier1ByDegree(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	stub, err := experiment.PickStub(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	ann := routing.Announcement{Origin: victim, Prepend: 3}
	s := routing.NewScratch()
	base, err := routing.Propagate(g, ann)
	if err != nil {
		b.Fatal(err)
	}
	for _, leg := range []struct {
		name string
		atk  routing.Attacker
	}{
		{"small", routing.Attacker{AS: stub}},
		{"large", routing.Attacker{AS: big}},
	} {
		if _, err := routing.PropagateAttackDelta(g, ann, leg.atk, base, s); err != nil {
			b.Fatalf("%s: %v", leg.name, err)
		}
		cone := float64(len(s.DeltaCone()))
		b.Run(leg.name+"/delta", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if deltaSink, err = routing.PropagateAttackDelta(g, ann, leg.atk, base, s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cone, "cone_rows")
		})
		b.Run(leg.name+"/full", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if deltaSink, err = routing.PropagateAttackScratch(g, ann, leg.atk, base, s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cone, "cone_rows")
		})
	}
}
