package defense

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/stats"
	"aspp/internal/topology"
)

// The retained-Impact oracle: Compare as it ran before the leg visitor —
// simulate the whole 20× candidate budget, keep every usable attack's
// core.Impact, select and evaluate through isPolluted / pollutedASes.
// Test-side only; Compare must reproduce it field for field.

// isPolluted reports whether asn adopted im's bogus route.
func isPolluted(im *core.Impact, asn bgp.ASN) bool {
	i, ok := im.Attacked().Graph().Index(asn)
	return ok && im.Attacked().Via[i]
}

// pollutedASes lists the ASes that adopt im's bogus route, sorted by ASN.
func pollutedASes(im *core.Impact) []bgp.ASN {
	g := im.Attacked().Graph()
	var out []bgp.ASN
	for i, v := range im.Attacked().Via {
		if asn := g.ASNAt(int32(i)); v && asn != im.Scenario.Attacker {
			out = append(out, asn)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// retainedDraw simulates all n×20 candidates and keeps the first n usable;
// upTo > 0 stops at the upTo-th usable one instead and reports how many
// candidates that consumed (what the work-count test needs, without the
// 2,000 simulations that are the point of that test).
func retainedDraw(t *testing.T, g *topology.Graph, cfg Config, n int, label string, upTo int) (impacts []*core.Impact, consumed int) {
	t.Helper()
	rng := rand.New(rand.NewSource(stats.DeriveSeed(cfg.Seed, label)))
	asns := g.ASNs()
	for drawn := 0; drawn < n*20 && (upTo == 0 || len(impacts) < upTo); {
		m := asns[rng.Intn(len(asns))]
		if m == cfg.Victim {
			continue
		}
		drawn++
		im, err := core.Simulate(g, core.Scenario{Victim: cfg.Victim, Attacker: m, Prepend: cfg.Prepend, ViolateValleyFree: cfg.Violate})
		if errors.Is(err, routing.ErrUnreachableAttacker) {
			continue
		}
		if err != nil {
			t.Fatalf("attack %v against %v: %v", m, cfg.Victim, err)
		}
		if len(im.NewlyPolluted()) > 0 && len(impacts) < n {
			impacts = append(impacts, im)
			consumed = drawn
		}
	}
	return impacts, consumed
}

func retainedGreedy(g *topology.Graph, training []*core.Impact, budget int) []bgp.ASN {
	counts := make(map[bgp.ASN]int)
	for _, im := range training {
		for _, asn := range pollutedASes(im) {
			counts[asn]++
		}
	}
	candidates := make([]bgp.ASN, 0, len(counts))
	for asn := range counts {
		candidates = append(candidates, asn)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })

	covered := make([]bool, len(training))
	var chosen []bgp.ASN
	for len(chosen) < budget {
		best := bgp.ASN(0)
		bestGain := 0
		for _, c := range candidates {
			gain := 0
			for i, im := range training {
				if !covered[i] && isPolluted(im, c) {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && gain > 0 && c < best) {
				best, bestGain = c, gain
			}
		}
		if bestGain == 0 {
			break
		}
		chosen = append(chosen, best)
		for i, im := range training {
			if isPolluted(im, best) {
				covered[i] = true
			}
		}
	}
	have := make(map[bgp.ASN]bool, len(chosen))
	for _, c := range chosen {
		have[c] = true
	}
	for _, top := range g.TopByDegree(budget) {
		if len(chosen) >= budget {
			break
		}
		if !have[top] {
			have[top] = true
			chosen = append(chosen, top)
		}
	}
	return chosen
}

// retainedCompare returns nil where Compare errors: either draw finds under
// half its quota, or a strategy cannot place monitors for this victim.
func retainedCompare(t *testing.T, g *topology.Graph, cfg Config) []Outcome {
	t.Helper()
	eval, _ := retainedDraw(t, g, cfg, cfg.EvalAttacks, "defense.compare.eval", 0)
	training, _ := retainedDraw(t, g, cfg, cfg.TrainingAttacks, "defense.greedy.training", 0)
	if len(eval) < cfg.EvalAttacks/2 || len(training) < cfg.TrainingAttacks/2 {
		return nil
	}
	var out []Outcome
	for _, s := range []Strategy{StrategyTopDegree, StrategyRandom, StrategyVictimCone, StrategyGreedy} {
		var monitors []bgp.ASN
		if s == StrategyGreedy {
			monitors = retainedGreedy(g, training, cfg.Budget)
		} else {
			var err error
			if monitors, err = SelectMonitors(g, cfg, s); err != nil {
				return nil // a tier-1 victim has no provider cone to monitor
			}
		}
		hit := 0
		for _, im := range eval {
			for _, m := range monitors {
				if isPolluted(im, m) {
					hit++
					break
				}
			}
		}
		out = append(out, Outcome{Strategy: s, Monitors: monitors, DetectedFrac: float64(hit) / float64(len(eval))})
	}
	return out
}

// darkPeerGraph is experiment's unreachableAttackerGraph: AS 900 hangs off
// stub 100 by a peer link only, so it hears no prefix but 100's and every
// draw naming it as the attacker is skipped and topped up.
func darkPeerGraph(t *testing.T) *topology.Graph {
	t.Helper()
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{10, 30}, {10, 40}, {20, 50}, {20, 60},
		{30, 100}, {40, 70}, {50, 200}, {60, 300},
	} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]bgp.ASN{{10, 20}, {100, 900}} {
		if err := b.AddP2P(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCompareVisitorMatchesRetained(t *testing.T) {
	type job struct {
		name string
		g    *topology.Graph
		cfg  Config
	}
	var jobs []job
	for seed := int64(1); seed <= 6; seed++ {
		g := defGraph(t, 400, 200+seed)
		cfg := DefaultConfig(pickVictim(t, g))
		cfg.Budget, cfg.Seed = 5, seed
		jobs = append(jobs, job{fmt.Sprintf("n400/seed%d", seed), g, cfg})
	}
	dark := darkPeerGraph(t)
	ran := 0
	for _, victim := range dark.ASNs() {
		cfg := DefaultConfig(victim)
		cfg.Budget, cfg.TrainingAttacks, cfg.EvalAttacks = 2, 6, 8
		jobs = append(jobs, job{fmt.Sprintf("dark-peer/victim%v", victim), dark, cfg})
	}
	for _, j := range jobs {
		want := retainedCompare(t, j.g, j.cfg)
		for _, workers := range []int{1, 4} {
			j.cfg.Workers = workers
			got, err := Compare(j.g, j.cfg)
			if (err != nil) != (want == nil) {
				t.Fatalf("%s workers %d: err=%v, oracle outcome %v", j.name, workers, err, want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers %d:\n got %+v\nwant %+v", j.name, workers, got, want)
			}
		}
		if want != nil && j.g == dark {
			ran++
		}
	}
	if ran == 0 {
		t.Error("no dark-peer victim produced a comparison; the skip-and-top-up path went untested")
	}
}

// TestDrawSimulatesWhatItConsumes: the default comparison at n=4000 used to
// simulate its whole 20× retry budget — 1,200 + 800 attack legs — to keep
// the first 60 + 40 effective ones. Through the leg runner each draw stops
// at the candidate that meets its quota: every leg simulated is one the
// draw consumed, and there are a few hundred at most.
func TestDrawSimulatesWhatItConsumes(t *testing.T) {
	g := defGraph(t, 4000, 1)
	cfg := DefaultConfig(pickVictim(t, g))
	total := int64(0)
	for _, d := range []struct {
		n     int
		label string
	}{{cfg.EvalAttacks, "defense.compare.eval"}, {cfg.TrainingAttacks, "defense.greedy.training"}} {
		c := new(obs.Counters)
		cfg.Counters = c
		attacks, err := drawPollution(g, cfg, d.n, d.label)
		if err != nil {
			t.Fatal(err)
		}
		s := c.Snapshot()
		if len(attacks) != d.n || s.AttackPropagations()-s.SkippedIneffective != int64(d.n) {
			t.Errorf("%s: %d attacks from %d legs of which %d ineffective, want %d effective",
				d.label, len(attacks), s.AttackPropagations(), s.SkippedIneffective, d.n)
		}
		if s.BasePropagations != 1 {
			t.Errorf("%s: %d baseline propagations for one victim", d.label, s.BasePropagations)
		}
		_, consumed := retainedDraw(t, g, cfg, d.n, d.label, d.n)
		if got := s.AttackPropagations() + s.SkippedUnreachable; got != int64(consumed) {
			t.Errorf("%s: %d candidates simulated or skipped, the quota consumes %d", d.label, got, consumed)
		}
		total += s.AttackPropagations() + s.SkippedUnreachable
	}
	if total < 100 || total > 400 {
		t.Errorf("the two draws consumed %d candidates; want the ≈150 their quotas need, not the 2,000 budget", total)
	}
}
