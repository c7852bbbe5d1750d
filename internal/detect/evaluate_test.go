package detect

import (
	"errors"
	"math/rand"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/routing"
)

// TestEvalScratchArenaBounded: Extract resets the arena, so a scratch holds
// one attack's chains, never the history of every attack it evaluated. A
// first round reads a tier-1's attack on a stub at every AS, whose routes
// and triggers size every buffer beyond what a 100-monitor attack needs; after
// it, 500 distinct attacks at the top 100 monitors leave MemoryBytes exactly
// where the first round left it.
func TestEvalScratchArenaBounded(t *testing.T) {
	g := diffTestGraph(t, 600, 3)
	asns := g.ASNs()
	simulate := func(v, m bgp.ASN) (*core.Impact, error) {
		return core.Simulate(g, core.Scenario{Victim: v, Attacker: m, Prepend: 3})
	}
	sc := NewEvalScratch()
	first, err := simulate(asns[len(asns)-1], g.Tier1s()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !EvaluateScratch(first, asns, g, sc).Detected {
		t.Fatal("premise broken: the first round raises no alarm")
	}
	flat := sc.MemoryBytes()

	monitors := g.TopByDegree(100)
	rng := rand.New(rand.NewSource(7))
	seen := map[[2]bgp.ASN]bool{}
	for len(seen) < 500 {
		v, m := asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]
		if v == m || seen[[2]bgp.ASN{v, m}] {
			continue
		}
		im, err := simulate(v, m)
		if errors.Is(err, routing.ErrUnreachableAttacker) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		seen[[2]bgp.ASN{v, m}] = true
		EvaluateScratch(im, monitors, g, sc)
		if got := sc.MemoryBytes(); got != flat {
			t.Fatalf("attack %d (%v attacked by %v): scratch holds %d B, %d B after the first round", len(seen), v, m, got, flat)
		}
	}
}

// BenchmarkFold times the batch fold in Fig. 13's shape: 100 effective
// attacks (λ = 3, valley-free violated) on a generated 4,000-AS graph,
// each extracted once, outside the timer, for the 300 best-connected
// monitors; one op is one attack's Fold over the nine default monitor
// counts plus the latency count, under the ground-truth relationships. It
// reports pairs/op, Pairs' count, beside ns/op, so `go test -run '^$'
// -bench Fold ./internal/detect/` A/Bs the layer outside the sweep.
func BenchmarkFold(b *testing.B) {
	g := diffTestGraph(b, 4000, 1)
	asns, monitors := g.ASNs(), g.TopByDegree(300)
	rng := rand.New(rand.NewSource(1))
	var scs []*EvalScratch
	for len(scs) < 100 {
		v, m := asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]
		if v == m {
			continue
		}
		im, err := core.Simulate(g, core.Scenario{Victim: v, Attacker: m, Prepend: 3, ViolateValleyFree: true})
		if errors.Is(err, routing.ErrUnreachableAttacker) || err == nil && !im.Effective() {
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		sc := NewEvalScratch()
		sc.Extract(im, monitors)
		scs = append(scs, sc)
	}
	ends := []int{10, 30, 50, 70, 100, 150, 200, 250, 300, 30}
	res, hops := make([]EvalResult, len(ends)), make([]int, len(ends))
	pairs := 0
	b.ResetTimer()
	for i := range b.N {
		sc := scs[i%len(scs)]
		before := sc.Pairs()
		sc.Fold(0, ends, g, res, hops)
		pairs += sc.Pairs() - before
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}
