package aspp

// One benchmark per paper table/figure (reduced topology sizes so the
// suite completes quickly), plus the ablation benchmarks DESIGN.md calls
// out: Fast vs Reference engine, survey memoization, and worker fan-out.
// cmd/asppbench regenerates the figures at full scale.

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"aspp/internal/collector"
	"aspp/internal/experiment"
	"aspp/internal/measure"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

const benchSize = 1000

var (
	benchOnce sync.Once
	benchNet  *Internet
)

func benchInternet(b *testing.B) *Internet {
	b.Helper()
	benchOnce.Do(func() {
		in, err := NewInternet(WithSize(benchSize), WithSeed(1))
		if err != nil {
			panic(err)
		}
		benchNet = in
	})
	return benchNet
}

func benchTier1Pair(b *testing.B, in *Internet) (victim, attacker ASN) {
	b.Helper()
	g := in.Graph()
	v, err := experiment.PickTier1ByDegree(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	m, err := experiment.PickTier1ByDegree(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	return v, m
}

// BenchmarkFig1CaseStudy regenerates the Facebook anomaly (paper Fig. 1).
func BenchmarkFig1CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := FacebookCaseStudy(300, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Traceroute regenerates the Table I traceroutes.
func BenchmarkTable1Traceroute(b *testing.B) {
	cs, err := FacebookCaseStudy(300, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		normal, hijacked := cs.Traceroutes(1)
		if len(normal) == 0 || len(hijacked) == 0 {
			b.Fatal("empty traceroute")
		}
	}
}

// BenchmarkFig5Usage runs the monitor-table/update survey (paper Fig. 5;
// Fig. 6's distributions come from the same pass).
func BenchmarkFig5Usage(b *testing.B) {
	in := benchInternet(b)
	cfg := measure.DefaultSurveyConfig()
	cfg.ChurnEvents = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.UsageSurvey(PolicyConfig{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5TableLeg is the survey's steady-state table leg alone (no
// churn events): one batched propagation lane per origin.
func BenchmarkFig5TableLeg(b *testing.B) {
	in := benchInternet(b)
	origins, err := collector.AssignOrigins(in.Graph(), collector.DefaultPolicyConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := measure.DefaultSurveyConfig()
	cfg.ChurnEvents = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := measure.RunSurvey(in.Graph(), origins, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Tier1Pairs ranks tier-1-on-tier-1 hijacks (paper Fig. 7).
func BenchmarkFig7Tier1Pairs(b *testing.B) {
	in := benchInternet(b)
	for i := 0; i < b.N; i++ {
		if _, err := in.SamplePairsCtx(context.Background(), PairConfig{
			Kind: PairsTier1, N: 40, Prepend: 3, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8RandomPairs ranks random-pair hijacks (paper Fig. 8).
func BenchmarkFig8RandomPairs(b *testing.B) {
	in := benchInternet(b)
	for i := 0; i < b.N; i++ {
		if _, err := in.SamplePairsCtx(context.Background(), PairConfig{
			Kind: PairsRandom, N: 27, Prepend: 3, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Sweep sweeps λ for a tier-1 pair (paper Fig. 9).
func BenchmarkFig9Sweep(b *testing.B) {
	in := benchInternet(b)
	v, m := benchTier1Pair(b, in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.SweepPrependCfgCtx(context.Background(), SweepConfig{Victim: v, Attacker: m, MaxLambda: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10SweepTier1VsStub sweeps λ for a tier-1 attacker against a
// content-stub victim (paper Fig. 10).
func BenchmarkFig10SweepTier1VsStub(b *testing.B) {
	in := benchInternet(b)
	g := in.Graph()
	attacker, err := experiment.PickTier1ByDegree(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	victim, err := experiment.PickContentStub(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.SweepPrependCfgCtx(context.Background(), SweepConfig{Victim: victim, Attacker: attacker, MaxLambda: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Violate sweeps λ for a stub attacker against a tier-1
// victim with valley-free violation (paper Fig. 11; also the violation-
// handling ablation: the violating pass costs one extra seeded sweep).
func BenchmarkFig11Violate(b *testing.B) {
	in := benchInternet(b)
	g := in.Graph()
	attacker, err := experiment.PickContentStub(g)
	if err != nil {
		b.Fatal(err)
	}
	victim, err := experiment.PickTier1ByDegree(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.SweepPrependCfgCtx(context.Background(), SweepConfig{Victim: victim, Attacker: attacker, MaxLambda: 8, Violate: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12SmallPair sweeps λ for a small-vs-small pair (Fig. 12).
func BenchmarkFig12SmallPair(b *testing.B) {
	in := benchInternet(b)
	g := in.Graph()
	attacker, err := experiment.PickStub(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	victim, err := experiment.PickStub(g, 77)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.SweepPrependCfgCtx(context.Background(), SweepConfig{Victim: victim, Attacker: attacker, MaxLambda: 8, Violate: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13Detection runs the detection accuracy sweep (Fig. 13).
func BenchmarkFig13Detection(b *testing.B) {
	in := benchInternet(b)
	cfg := DefaultDetectionConfig()
	cfg.MonitorCounts = []int{10, 70, 150}
	cfg.Pairs = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.RunDetectionCtx(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13MonitorPolicy is the monitor-placement ablation.
func BenchmarkFig13MonitorPolicy(b *testing.B) {
	in := benchInternet(b)
	for _, policy := range []struct {
		name string
		p    experiment.MonitorPolicy
	}{
		{name: "top-degree", p: MonitorsTopDegree},
		{name: "random", p: MonitorsRandom},
	} {
		b.Run(policy.name, func(b *testing.B) {
			cfg := DefaultDetectionConfig()
			cfg.MonitorCounts = []int{70}
			cfg.Pairs = 40
			cfg.Policy = policy.p
			for i := 0; i < b.N; i++ {
				if _, err := in.RunDetectionCtx(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14DetectionLatency measures the polluted-before-detection
// computation (Fig. 14) on top of the accuracy run.
func BenchmarkFig14DetectionLatency(b *testing.B) {
	in := benchInternet(b)
	cfg := DefaultDetectionConfig()
	cfg.MonitorCounts = []int{150}
	cfg.Pairs = 40
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := in.RunDetectionCtx(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.PollutedBeforeDetection) == 0 {
			b.Fatal("no latency data")
		}
	}
}

// BenchmarkEngineFastVsReference is the engine ablation: the three-phase
// DAG engine vs the message-level BGP simulation.
func BenchmarkEngineFastVsReference(b *testing.B) {
	cfg := topology.DefaultGenConfig(600)
	cfg.Seed = 5
	g, err := topology.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	victim := g.Tier1s()[0]
	attacker := g.Tier1s()[1]
	ann := routing.Announcement{Origin: victim, Prepend: 3}
	atk := routing.Attacker{AS: attacker}

	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base, err := routing.Propagate(g, ann)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := routing.PropagateAttackScratch(g, ann, atk, base, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := routing.PropagateReference(g, ann, &atk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPairFanout is the worker-pool ablation for pair experiments.
// The multi-worker leg uses GOMAXPROCS workers rather than a fixed count:
// a pool wider than the scheduler's parallelism cannot speed anything up,
// it only adds handoff overhead, and on a single-CPU runner (the PR 4
// baseline was recorded on one — see EXPERIMENTS.md) a fixed workers=4
// leg silently measured serial execution. Each leg reports its effective
// parallelism as the "maxprocs" metric so recorded numbers are
// interpretable later.
func BenchmarkPairFanout(b *testing.B) {
	in := benchInternet(b)
	maxProcs := runtime.GOMAXPROCS(0)
	for _, cs := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=max", maxProcs},
	} {
		b.Run(cs.name, func(b *testing.B) {
			b.ReportMetric(float64(maxProcs), "maxprocs")
			for i := 0; i < b.N; i++ {
				if _, err := in.SamplePairsCtx(context.Background(), PairConfig{
					Kind: PairsRandom, N: 20, Prepend: 3, Seed: 3, Workers: cs.workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPropagateReuse is the scratch-reuse ablation at full paper
// scale (n=4000): the same baseline+attack propagation pair with fresh
// allocations every iteration vs a warmed reusable routing.Scratch. The
// reuse leg must report far fewer allocs/op (it is zero after warm-up;
// the acceptance bar is ≥30% fewer than fresh).
func BenchmarkPropagateReuse(b *testing.B) {
	cfg := topology.DefaultGenConfig(4000)
	cfg.Seed = 9
	g, err := topology.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	victim, attacker := g.Tier1s()[0], g.Tier1s()[1]
	ann := routing.Announcement{Origin: victim, Prepend: 3}
	atk := routing.Attacker{AS: attacker}

	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			base, err := routing.Propagate(g, ann)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := routing.PropagateAttackScratch(g, ann, atk, base, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		b.ReportAllocs()
		s := routing.NewScratch()
		base, err := routing.PropagateScratch(g, ann, s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := routing.PropagateAttackScratch(g, ann, atk, base, s); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base, err := routing.PropagateScratch(g, ann, s)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := routing.PropagateAttackScratch(g, ann, atk, base, s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDeltaVsFull is the attack-engine ablation at full paper scale
// (n=4000), shaped like the sweep inner loops: λ = 1..8 attacks against
// per-λ cached baselines on one warmed Scratch, by attackers drawn across
// the tier mix the pair and susceptibility sweeps sample (a tier-1, the
// content stub, a random multihomed stub). The full leg re-propagates the
// whole topology per attack; the delta leg recomputes only the attacker's
// cone, so its advantage tracks the cone size — moderate for a tier-1
// attacker, large for the edge attackers that dominate the sampled
// workloads. The acceptance bar is delta ≥2x faster than full with
// 0 allocs/op once warmed.
func BenchmarkDeltaVsFull(b *testing.B) {
	cfg := topology.DefaultGenConfig(4000)
	cfg.Seed = 9
	g, err := topology.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	victim := g.Tier1s()[0]
	contentStub, err := experiment.PickContentStub(g)
	if err != nil {
		b.Fatal(err)
	}
	randomStub, err := experiment.PickStub(g, 9)
	if err != nil {
		b.Fatal(err)
	}
	attackers := []routing.Attacker{
		{AS: g.Tier1s()[1]},
		{AS: contentStub},
		{AS: randomStub},
	}

	// Per-λ baselines, cloned out of the scratch exactly as the sweep
	// drivers' BaselineCache holds them.
	const maxLambda = 8
	anns := make([]routing.Announcement, maxLambda)
	baselines := make([]*routing.Result, maxLambda)
	s := routing.NewScratch()
	for i := range anns {
		anns[i] = routing.Announcement{Origin: victim, Prepend: i + 1}
		base, err := routing.PropagateScratch(g, anns[i], s)
		if err != nil {
			b.Fatal(err)
		}
		baselines[i] = base.Clone()
	}

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		if _, err := routing.PropagateAttackScratch(g, anns[0], attackers[0], baselines[0], s); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, atk := range attackers {
				for j := range anns {
					if _, err := routing.PropagateAttackScratch(g, anns[j], atk, baselines[j], s); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		if _, err := routing.PropagateAttackDelta(g, anns[0], attackers[0], baselines[0], s); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, atk := range attackers {
				for j := range anns {
					if _, err := routing.PropagateAttackDelta(g, anns[j], atk, baselines[j], s); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// BenchmarkPropagate measures one baseline route propagation.
func BenchmarkPropagate(b *testing.B) {
	in := benchInternet(b)
	victim := in.Tier1s()[0]
	ann := Announcement{Origin: victim, Prepend: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Propagate(ann); err != nil {
			b.Fatal(err)
		}
	}
}
