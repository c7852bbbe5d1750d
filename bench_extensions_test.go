package aspp

// Benchmarks for the extension features: the §II.B attack-family
// comparison, §VIII self-defense, sibling scenarios, multi-seed
// propagation and the collector codecs.

import (
	"bytes"
	"context"
	"math/rand"
	"net/netip"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/experiment"
	"aspp/internal/routing"
)

// BenchmarkCompareAttackTypes runs the three-way attack/detector matrix.
func BenchmarkCompareAttackTypes(b *testing.B) {
	in := benchInternet(b)
	cfg := experiment.DefaultCompareConfig()
	cfg.Pairs = 10
	cfg.Monitors = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.CompareAttackTypesCtx(context.Background(), in.Graph(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDefenseCompare runs all four self-defense placement strategies.
func BenchmarkDefenseCompare(b *testing.B) {
	in := benchInternet(b)
	g := in.Graph()
	var victim ASN
	for _, asn := range g.ASNs() {
		if g.IsStub(asn) && len(g.Providers(asn)) >= 2 {
			victim = asn
			break
		}
	}
	cfg := DefaultDefenseConfig(victim)
	cfg.TrainingAttacks = 20
	cfg.EvalAttacks = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.CompareDefenses(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSiblingSweep runs the Fig. 11 sibling scenario (every leg on
// the full kernel's sibling pass loop).
func BenchmarkSiblingSweep(b *testing.B) {
	in := benchInternet(b)
	g := in.Graph()
	victim, err := experiment.PickTier1ByDegree(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	attacker, err := experiment.PickContentStub(g)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := experiment.BuildSiblingScenario(g, victim, attacker, 65530)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Sweep(4); err != nil {
			b.Fatal(err)
		}
	}
}

// benchForgedHijack measures one forged-claim simulation (honest baseline
// plus the attack on the full kernel). The allocations are the two
// private Results Simulate hands back and the Impact's via set.
func benchForgedHijack(b *testing.B, typ core.AttackType) {
	in := benchInternet(b)
	t1 := in.Tier1s()
	sc := core.Scenario{Victim: t1[0], Attacker: t1[1], Prepend: 3, Type: typ}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(in.Graph(), sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineOriginHijack measures one origin-hijack simulation.
func BenchmarkBaselineOriginHijack(b *testing.B) {
	benchForgedHijack(b, core.AttackOriginHijack)
}

// BenchmarkBaselineNextHop measures one invalid-next-hop simulation.
func BenchmarkBaselineNextHop(b *testing.B) {
	benchForgedHijack(b, core.AttackNextHopInterception)
}

// BenchmarkUpdateCodec round-trips update records in both formats.
func BenchmarkUpdateCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	updates := make([]bgp.Update, 500)
	pfx := netip.MustParsePrefix("69.171.224.0/20")
	for i := range updates {
		path := bgp.Path{bgp.ASN(1 + rng.Intn(60000)), bgp.ASN(1 + rng.Intn(60000)), 32934, 32934, 32934}
		updates[i] = bgp.Update{
			Time: uint64(i), Monitor: bgp.ASN(1 + rng.Intn(60000)),
			Type: bgp.Announce, Prefix: pfx, Path: path,
		}
	}
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := bgp.WriteUpdatesBinary(&buf, updates); err != nil {
				b.Fatal(err)
			}
			if _, err := bgp.ReadUpdatesBinary(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			for _, u := range updates {
				if err := bgp.WriteUpdateText(&buf, u); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := bgp.ReadUpdatesText(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReferenceEngineSiblings measures the reference engine on a
// sibling-bearing graph, the oracle the full kernel is tested against
// there.
func BenchmarkReferenceEngineSiblings(b *testing.B) {
	in := benchInternet(b)
	g := in.Graph()
	victim, err := experiment.PickTier1ByDegree(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	attacker, err := experiment.PickContentStub(g)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := experiment.BuildSiblingScenario(g, victim, attacker, 65531)
	if err != nil {
		b.Fatal(err)
	}
	ann := routing.Announcement{Origin: victim, Prepend: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.PropagateReference(sc.Graph, ann, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSusceptibilityMatrix runs the §VI-B tier matrix.
func BenchmarkSusceptibilityMatrix(b *testing.B) {
	in := benchInternet(b)
	cfg := experiment.DefaultSusceptibilityConfig()
	cfg.PairsPerCell = 6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.SusceptibilityMatrixCtx(context.Background(), in.Graph(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCautiousAdoption runs the PGBGP deployment sweep.
func BenchmarkCautiousAdoption(b *testing.B) {
	in := benchInternet(b)
	t1 := in.Tier1s()
	sc := core.Scenario{Victim: t1[0], Attacker: t1[1], Prepend: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.CautiousAdoptionSweep(sc, []float64{0, 0.5, 1}, DeployTopDegree, 1); err != nil {
			b.Fatal(err)
		}
	}
}
