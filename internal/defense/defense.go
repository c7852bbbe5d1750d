// Package defense implements the paper's future-work agenda (§VIII):
// vantage-point selection for a prefix owner's self-defense, and reactive
// mitigation once an ASPP interception is detected.
//
// Self-defense scores a monitor set by the owner-policy check
// (detect.DetectOwnPolicy): the owner knows its own per-neighbor prepend
// counts, so an attack is detectable from a monitor set exactly when at
// least one monitor's best route carries fewer origin copies than the
// policy prescribes. What runs is the attacked rows' via bits: with one
// λ ≥ 2 announced to every neighbor, that check alarms on a monitor exactly
// when the monitor is polluted, which TestPollutionIsOwnerPolicyAlarm
// holds. Choosing monitors is therefore a max-coverage problem over the
// pollution sets of anticipated attacks, which the greedy strategy
// approximates with the classic (1−1/e) guarantee.
package defense

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/experiment"
	"aspp/internal/obs"
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
	// Counters, when non-nil, receives the attack draws' telemetry
	// (propagations, skipped draws, memory gauges).
	Counters *obs.Counters
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

// pollution is one usable attack's pollution set, a bitset over dense AS
// indices copied out of the leg's borrowed Impact: bit i is set when AS i
// routes via the attacker under the attack (Attacked().Via[i]).
type pollution struct {
	attacker int32
	via      []uint64
}

func (p pollution) has(i int32) bool { return p.via[i>>6]>>(uint(i)&63)&1 != 0 }

// drawPollution simulates attacks by random attackers against the victim,
// drawn from the seed stream named by label, until n of them are effective
// (experiment.EffectiveAttacks: the first n usable candidates in draw
// order, and no candidate past the n-th is simulated), and returns each
// one's pollution set. A no-op attack is undetectable by construction and
// an attacker that never hears the route cannot attack; both are redrawn.
// The legs are recorded into cfg.Counters.
func drawPollution(g *topology.Graph, cfg Config, n int, label string) ([]pollution, error) {
	rng := rand.New(rand.NewSource(stats.DeriveSeed(cfg.Seed, label)))
	asns := g.ASNs()
	stream := make([]core.Scenario, 0, n*20)
	for len(stream) < cap(stream) {
		if m := asns[rng.Intn(len(asns))]; m != cfg.Victim {
			stream = append(stream, core.Scenario{
				Victim:            cfg.Victim,
				Attacker:          m,
				Prepend:           cfg.Prepend,
				ViolateValleyFree: cfg.Violate,
			})
		}
	}
	attacks, err := experiment.EffectiveAttacks(context.Background(), g, stream, n, cfg.Workers, cfg.Counters,
		func(im *core.Impact) pollution {
			via := im.Attacked().Via
			p := pollution{via: make([]uint64, (len(via)+63)/64)}
			p.attacker, _ = g.Index(im.Scenario.Attacker)
			for i, v := range via {
				if v {
					p.via[i>>6] |= 1 << (uint(i) & 63)
				}
			}
			return p
		})
	if err != nil {
		return nil, fmt.Errorf("defense: attacks against %v: %w", cfg.Victim, err)
	}
	return attacks, nil
}

// detectedFrac scores a monitor set against the attacks under the
// owner-policy check: an attack is caught when some monitor's best route
// lost prepends, i.e. some monitor is polluted.
func detectedFrac(g *topology.Graph, attacks []pollution, monitors []bgp.ASN) float64 {
	if len(attacks) == 0 {
		return 0
	}
	hit := 0
	for _, a := range attacks {
		for _, m := range monitors {
			if i, ok := g.Index(m); ok && a.has(i) {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(attacks))
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
		training, err := drawPollution(g, cfg, cfg.TrainingAttacks, "defense.greedy.training")
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
func greedySelect(g *topology.Graph, training []pollution, budget int) []bgp.ASN {
	// Candidate pool: every AS polluted by at least one training attack
	// other than as its attacker (anything else can never detect), in ASN
	// order so ties go to the lowest ASN.
	var candidates []int32
	for i := int32(0); i < int32(g.NumASes()); i++ {
		for _, a := range training {
			if i != a.attacker && a.has(i) {
				candidates = append(candidates, i)
				break
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return g.ASNAt(candidates[i]) < g.ASNAt(candidates[j]) })

	covered := make([]bool, len(training))
	var chosen []bgp.ASN
	for len(chosen) < budget {
		best, bestGain := int32(-1), 0
		for _, c := range candidates {
			gain := 0
			for k, a := range training {
				if !covered[k] && a.has(c) {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = c, gain
			}
		}
		if bestGain == 0 {
			break // remaining attacks are uncoverable; stop early
		}
		chosen = append(chosen, g.ASNAt(best))
		for k, a := range training {
			if a.has(best) {
				covered[k] = true
			}
		}
	}
	// Spend leftover budget on top-degree ASes for generalization.
	for _, t := range g.TopByDegree(budget) {
		if len(chosen) >= budget {
			break
		}
		if !slices.Contains(chosen, t) {
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
	eval, err := drawPollution(g, cfg, cfg.EvalAttacks, "defense.compare.eval")
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
			DetectedFrac: detectedFrac(g, eval, monitors),
		})
	}
	return out, nil
}
