// Package defense implements the paper's future-work agenda (§VIII):
// vantage-point selection for a prefix owner's self-defense, and reactive
// mitigation once an ASPP interception is detected.
//
// Self-defense uses the owner-policy check (detect.DetectOwnPolicy): the
// owner knows its own per-neighbor prepend counts, so an attack is
// detectable from a monitor set exactly when at least one monitor's best
// route carries fewer origin copies than the policy prescribes — i.e.
// when some monitor is polluted. Choosing monitors is therefore a
// max-coverage problem over the pollution sets of anticipated attacks,
// which the greedy strategy approximates with the classic (1−1/e)
// guarantee.
package defense

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/parallel"
	"aspp/internal/routing"
	"aspp/internal/stats"
	"aspp/internal/topology"
)

// Strategy selects how a victim places its monitoring budget.
type Strategy uint8

const (
	// StrategyTopDegree: the d globally best-connected ASes (the paper's
	// Fig. 13 policy, victim-agnostic).
	StrategyTopDegree Strategy = iota + 1
	// StrategyRandom: d uniformly random ASes.
	StrategyRandom
	// StrategyVictimCone: the victim's providers, their providers, and
	// the peers of both — the ASes that hear the victim's routes first.
	StrategyVictimCone
	// StrategyGreedy: greedy max-coverage over the pollution sets of a
	// training set of simulated attacks against this victim.
	StrategyGreedy
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyTopDegree:
		return "top-degree"
	case StrategyRandom:
		return "random"
	case StrategyVictimCone:
		return "victim-cone"
	case StrategyGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Config parameterizes self-defense evaluation.
type Config struct {
	// Victim is the defending prefix owner.
	Victim bgp.ASN
	// Prepend is the victim's λ.
	Prepend int
	// Budget is the number of monitors the victim can afford.
	Budget int
	// TrainingAttacks and EvalAttacks are how many attacker draws to use
	// for greedy selection and for evaluation; the two sets are disjoint.
	TrainingAttacks, EvalAttacks int
	// Violate propagates the bogus route without export restrictions
	// (see experiment.DetectionConfig.Violate).
	Violate bool
	Seed    int64
	Workers int
}

// DefaultConfig returns a calibrated self-defense setup for one victim.
func DefaultConfig(victim bgp.ASN) Config {
	return Config{
		Victim:          victim,
		Prepend:         3,
		Budget:          10,
		TrainingAttacks: 40,
		EvalAttacks:     60,
		Violate:         true,
		Seed:            1,
	}
}

// Outcome is one strategy's evaluation.
type Outcome struct {
	Strategy Strategy
	Monitors []bgp.ASN
	// DetectedFrac is the fraction of evaluation attacks the monitor set
	// detects via the owner-policy check.
	DetectedFrac float64
}

// attackSet simulates attacks by distinct random attackers against the
// victim and returns each attack's pollution set as monitor indices.
type attackSet struct {
	impacts []*core.Impact
}

func drawAttacks(g *topology.Graph, cfg Config, n int, rng *rand.Rand) (*attackSet, error) {
	asns := g.ASNs()
	budget := n * 20
	candidates := make([]bgp.ASN, 0, budget)
	for len(candidates) < budget {
		m := asns[rng.Intn(len(asns))]
		if m != cfg.Victim {
			candidates = append(candidates, m)
		}
	}
	// Every candidate attacks the same victim announcement, so one
	// baseline propagation serves the whole draw (shared read-only, per
	// the SimulateWithBaseline contract) instead of one per candidate.
	base, err := core.BaselineOnly(g, core.Scenario{Victim: cfg.Victim, Prepend: cfg.Prepend})
	if err != nil {
		return nil, fmt.Errorf("defense: baseline for %v: %w", cfg.Victim, err)
	}
	sims, serr := parallel.MapErr(context.Background(), len(candidates), cfg.Workers, func(i int) (*core.Impact, error) {
		im, err := core.SimulateWithBaseline(g, core.Scenario{
			Victim:            cfg.Victim,
			Attacker:          candidates[i],
			Prepend:           cfg.Prepend,
			ViolateValleyFree: cfg.Violate,
		}, base, nil)
		if routing.Skippable(err) {
			return nil, nil // skippable draw: this attacker never hears the route
		}
		if err != nil {
			return nil, fmt.Errorf("defense: attack %v against %v: %w", candidates[i], cfg.Victim, err)
		}
		if len(im.NewlyPolluted()) == 0 {
			return nil, nil // no-op attack: undetectable by construction
		}
		return im, nil
	})
	if serr != nil {
		return nil, serr
	}
	set := &attackSet{}
	for _, im := range sims {
		if im != nil {
			set.impacts = append(set.impacts, im)
			if len(set.impacts) == n {
				break
			}
		}
	}
	if len(set.impacts) < n/2 {
		return nil, fmt.Errorf("defense: only %d usable attacks against %v", len(set.impacts), cfg.Victim)
	}
	return set, nil
}

// detects reports whether the monitor set catches the attack under the
// owner-policy check: some monitor's best route lost prepends, i.e. the
// monitor is polluted.
func (a *attackSet) detects(im *core.Impact, monitors []bgp.ASN) bool {
	for _, m := range monitors {
		if im.IsPolluted(m) {
			return true
		}
	}
	return false
}

// evaluate scores a monitor set against all attacks in the set.
func (a *attackSet) evaluate(monitors []bgp.ASN) float64 {
	if len(a.impacts) == 0 {
		return 0
	}
	hit := 0
	for _, im := range a.impacts {
		if a.detects(im, monitors) {
			hit++
		}
	}
	return float64(hit) / float64(len(a.impacts))
}

// SelectMonitors places cfg.Budget monitors for the victim under the
// given strategy. The greedy strategy trains on its own simulated attack
// draws (disjoint from any evaluation set by seed offset).
func SelectMonitors(g *topology.Graph, cfg Config, strategy Strategy) ([]bgp.ASN, error) {
	if cfg.Budget <= 0 {
		return nil, errors.New("defense: budget must be positive")
	}
	switch strategy {
	case StrategyTopDegree:
		return g.TopByDegree(cfg.Budget), nil
	case StrategyRandom:
		asns := g.ASNs()
		rng := rand.New(rand.NewSource(stats.DeriveSeed(cfg.Seed, "defense.monitors.random")))
		rng.Shuffle(len(asns), func(i, j int) { asns[i], asns[j] = asns[j], asns[i] })
		if cfg.Budget < len(asns) {
			asns = asns[:cfg.Budget]
		}
		return asns, nil
	case StrategyVictimCone:
		return victimCone(g, cfg.Victim, cfg.Budget)
	case StrategyGreedy:
		rng := rand.New(rand.NewSource(stats.DeriveSeed(cfg.Seed, "defense.greedy.training")))
		training, err := drawAttacks(g, cfg, cfg.TrainingAttacks, rng)
		if err != nil {
			return nil, err
		}
		return greedySelect(g, training, cfg.Budget), nil
	default:
		return nil, fmt.Errorf("defense: unknown strategy %d", strategy)
	}
}

// victimCone collects the ASes closest to the victim's announcements:
// providers, providers' providers, and the peers of each, in BFS order,
// truncated to the budget.
func victimCone(g *topology.Graph, victim bgp.ASN, budget int) ([]bgp.ASN, error) {
	if !g.Has(victim) {
		return nil, fmt.Errorf("defense: victim %v not in topology", victim)
	}
	seen := map[bgp.ASN]bool{victim: true}
	var out []bgp.ASN
	add := func(asn bgp.ASN) {
		if !seen[asn] && len(out) < budget {
			seen[asn] = true
			out = append(out, asn)
		}
	}
	frontier := g.Providers(victim)
	for hop := 0; hop < 3 && len(out) < budget && len(frontier) > 0; hop++ {
		var next []bgp.ASN
		for _, p := range frontier {
			add(p)
			for _, w := range g.Peers(p) {
				add(w)
			}
			next = append(next, g.Providers(p)...)
		}
		frontier = next
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("defense: victim %v has no providers to monitor", victim)
	}
	return out, nil
}

// greedySelect runs greedy max-coverage over the training attacks'
// pollution sets.
func greedySelect(g *topology.Graph, training *attackSet, budget int) []bgp.ASN {
	// Candidate pool: every AS polluted by at least one training attack
	// (anything else can never detect).
	counts := make(map[bgp.ASN]int)
	for _, im := range training.impacts {
		for _, asn := range im.PollutedASes() {
			counts[asn]++
		}
	}
	candidates := make([]bgp.ASN, 0, len(counts))
	for asn := range counts {
		candidates = append(candidates, asn)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })

	covered := make([]bool, len(training.impacts))
	var chosen []bgp.ASN
	for len(chosen) < budget {
		best := bgp.ASN(0)
		bestGain := 0
		for _, c := range candidates {
			gain := 0
			for i, im := range training.impacts {
				if !covered[i] && im.IsPolluted(c) {
					gain++
				}
			}
			if gain > bestGain || (gain == bestGain && gain > 0 && c < best) {
				best, bestGain = c, gain
			}
		}
		if bestGain == 0 {
			break // remaining attacks are uncoverable; stop early
		}
		chosen = append(chosen, best)
		for i, im := range training.impacts {
			if im.IsPolluted(best) {
				covered[i] = true
			}
		}
	}
	// Spend leftover budget on top-degree ASes for generalization.
	have := make(map[bgp.ASN]bool, len(chosen))
	for _, c := range chosen {
		have[c] = true
	}
	for _, t := range g.TopByDegree(budget) {
		if len(chosen) >= budget {
			break
		}
		if !have[t] {
			have[t] = true
			chosen = append(chosen, t)
		}
	}
	return chosen
}

// Compare evaluates every strategy on a fresh set of attacks against the
// victim, with the same budget.
func Compare(g *topology.Graph, cfg Config) ([]Outcome, error) {
	if cfg.Prepend < 2 {
		return nil, errors.New("defense: prepend must be >= 2")
	}
	rng := rand.New(rand.NewSource(stats.DeriveSeed(cfg.Seed, "defense.compare.eval")))
	eval, err := drawAttacks(g, cfg, cfg.EvalAttacks, rng)
	if err != nil {
		return nil, err
	}
	strategies := []Strategy{StrategyTopDegree, StrategyRandom, StrategyVictimCone, StrategyGreedy}
	out := make([]Outcome, 0, len(strategies))
	for _, s := range strategies {
		monitors, err := SelectMonitors(g, cfg, s)
		if err != nil {
			return nil, fmt.Errorf("defense: %v: %w", s, err)
		}
		out = append(out, Outcome{
			Strategy:     s,
			Monitors:     monitors,
			DetectedFrac: eval.evaluate(monitors),
		})
	}
	return out, nil
}
