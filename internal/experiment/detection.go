package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/detect"
	"aspp/internal/obs"
	"aspp/internal/parallel"
	"aspp/internal/routing"
	"aspp/internal/stats"
	"aspp/internal/topology"
)

// MonitorPolicy selects how the vantage-point set is chosen.
type MonitorPolicy uint8

const (
	// MonitorsTopDegree ranks all ASes by degree and takes the top d
	// (the paper's Fig. 13 policy).
	MonitorsTopDegree MonitorPolicy = iota + 1
	// MonitorsRandom samples d monitors uniformly (the ablation).
	MonitorsRandom
)

// DetectionConfig parameterizes the detection experiments.
type DetectionConfig struct {
	// MonitorCounts are the vantage-point set sizes to evaluate.
	MonitorCounts []int
	// Pairs is the number of random attacker/victim pairs (paper: 200).
	Pairs int
	// Prepend is the victim's λ.
	Prepend int
	// Violate lets the attacker export the bogus route to all neighbors.
	// The paper's random attacker/victim instances show substantial
	// pollution even for edge attackers, implying its Fig. 2 simulator
	// propagates the modified route without the attacker's own export
	// restriction; enabling this reproduces that behavior (and without it
	// most random edge attackers are no-ops with nothing to detect).
	Violate bool
	// Policy selects the monitor-set construction.
	Policy MonitorPolicy
	// Rels supplies AS relationships to the hint rules; nil uses the
	// ground-truth graph.
	Rels detect.RelQuerier
	// LatencyMonitors is the monitor-set size used for the Fig. 14
	// polluted-before-detection series (0 = the largest entry of
	// MonitorCounts). The paper's 150 monitors cover ~0.5% of its ~30k-AS
	// Internet; on smaller generated topologies a coverage-matched count
	// reproduces the figure's shape.
	LatencyMonitors int
	Seed            int64
	Workers         int
	// Counters optionally collects sweep telemetry; nil disables recording.
	Counters *obs.Counters
}

// DefaultDetectionConfig mirrors the paper's setup.
func DefaultDetectionConfig() DetectionConfig {
	return DetectionConfig{
		MonitorCounts: []int{10, 30, 50, 70, 100, 150, 200, 250, 300},
		Pairs:         200,
		Prepend:       3,
		Violate:       true,
		Policy:        MonitorsTopDegree,
		Seed:          1,
	}
}

// AccuracyPoint is one monitor-count datum of Fig. 13.
type AccuracyPoint struct {
	Monitors int
	// Detected is the fraction of attacks raising any alarm; High counts
	// only segment-conflict alarms; Attributed counts attacks where some
	// alarm named the true attacker.
	Detected, High, Attributed float64
}

// DetectionOutcome carries both figures' data from one run.
type DetectionOutcome struct {
	Accuracy []AccuracyPoint
	// PollutedBeforeDetection holds, for the latency monitor set, one
	// fraction per attack instance (Fig. 14's CDF input); undetected
	// attacks contribute 1.0. LatencyDetected marks which instances the
	// latency monitor set detected at all, so callers can condition the
	// CDF on detection.
	PollutedBeforeDetection []float64
	LatencyDetected         []bool
	// UsablePairs is the number of simulated attacks (attacker reachable
	// and stripping effective).
	UsablePairs int
}

// RunDetectionCtx simulates cfg.Pairs random interception attacks once,
// then evaluates the detection algorithm under every monitor-set size
// (paper Figs. 13-14). Cancellation is checked during attack simulation
// and in every per-monitor-count evaluation pass. Detection needs the full
// Impact (monitor paths), so the attack results are freshly allocated —
// but the per-victim baselines are still memoized in a BaselineCache and
// shared read-only. Returns (nil, ctx.Err()) when cancelled.
func RunDetectionCtx(ctx context.Context, g *topology.Graph, cfg DetectionConfig) (*DetectionOutcome, error) {
	if len(cfg.MonitorCounts) == 0 || cfg.Pairs <= 0 {
		return nil, errors.New("experiment: empty detection config")
	}
	if cfg.Prepend < 2 {
		return nil, errors.New("experiment: detection needs λ >= 2 (something to strip)")
	}
	rels := cfg.Rels
	if rels == nil {
		rels = g
	}
	usable, err := drawEffectiveAttacks(ctx, g, attackDraw{
		what: "detection sweep", pairs: cfg.Pairs, budget: cfg.Pairs * 20,
		prepend: cfg.Prepend, violate: cfg.Violate, seed: cfg.Seed,
		workers: cfg.Workers, counters: cfg.Counters,
	})
	if err != nil {
		return nil, err
	}

	out := &DetectionOutcome{UsablePairs: len(usable)}
	latencyCount := cfg.LatencyMonitors
	if latencyCount <= 0 {
		for _, d := range cfg.MonitorCounts {
			latencyCount = max(latencyCount, d)
		}
	}
	// A latency count outside MonitorCounts gets its own evaluation pass,
	// which contributes no accuracy point.
	counts := cfg.MonitorCounts
	if !slices.Contains(counts, latencyCount) {
		counts = append(slices.Clone(counts), latencyCount)
	}
	for ci, d := range counts {
		monitors, err := pickMonitors(g, d, cfg.Policy, cfg.Seed)
		if err != nil {
			return nil, err
		}
		evals, cerr := parallel.MapScratchErr(ctx, len(usable), cfg.Workers, detect.NewEvalScratch,
			func(sc *detect.EvalScratch, i int) (detect.EvalResult, error) {
				return detect.EvaluateScratch(usable[i], monitors, rels, sc), nil
			})
		if cerr != nil {
			return nil, fmt.Errorf("experiment: detection evaluation cancelled: %w", cerr)
		}
		if ci < len(cfg.MonitorCounts) {
			pt := AccuracyPoint{Monitors: d}
			for _, ev := range evals {
				if ev.Detected {
					pt.Detected++
				}
				if ev.DetectedHigh {
					pt.High++
				}
				if ev.Attributed {
					pt.Attributed++
				}
			}
			n := float64(len(usable))
			pt.Detected /= n
			pt.High /= n
			pt.Attributed /= n
			out.Accuracy = append(out.Accuracy, pt)
		}
		if d == latencyCount {
			out.PollutedBeforeDetection = make([]float64, len(evals))
			out.LatencyDetected = make([]bool, len(evals))
			for i, ev := range evals {
				out.PollutedBeforeDetection[i] = ev.PollutedBeforeDetection
				out.LatencyDetected[i] = ev.Detected
			}
		}
	}
	return out, nil
}

// attackDraw parameterizes drawEffectiveAttacks.
type attackDraw struct {
	what     string // names the sweep in errors ("detection sweep")
	pairs    int    // effective attacks wanted
	budget   int    // candidate draws allowed in total
	prepend  int
	violate  bool
	seed     int64
	workers  int
	counters *obs.Counters
}

// drawEffectiveAttacks simulates random interception attacks — victim and
// attacker uniform over all ASes — until d.pairs of them are effective,
// and returns those in draw order. Candidates are drawn in chunks of
// d.pairs from one rng stream, so the k-th candidate is identical
// regardless of the chunking and the usable set matches a
// draw-everything-upfront sweep, while stopping after ≈pairs simulations;
// d.budget only bounds how far redraws may reach. An attack must actually
// capture someone to count: one that changes no routes is a no-op —
// unobservable and harmless — and would only dilute a detection
// denominator. Unreachable attackers and no-op attacks are skipped and
// counted; anything else is fatal. Fewer than pairs/2 effective attacks
// within the budget is an error.
func drawEffectiveAttacks(ctx context.Context, g *topology.Graph, d attackDraw) ([]*core.Impact, error) {
	rng := rand.New(rand.NewSource(d.seed))
	asns := g.ASNs()
	cache := NewBaselineCache(g, d.counters, 0, 0)
	usable := make([]*core.Impact, 0, d.pairs)
	for drawn := 0; len(usable) < d.pairs && drawn < d.budget; {
		chunk := make([]core.Scenario, 0, d.pairs)
		for len(chunk) < d.pairs && drawn < d.budget {
			v := asns[rng.Intn(len(asns))]
			m := asns[rng.Intn(len(asns))]
			if v != m {
				chunk = append(chunk, core.Scenario{Victim: v, Attacker: m, Prepend: d.prepend, ViolateValleyFree: d.violate})
				drawn++
			}
		}
		impacts, err := parallel.MapErr(ctx, len(chunk), d.workers, func(i int) (*core.Impact, error) {
			sc := chunk[i]
			base, err := cache.Get(sc.Victim, sc.Prepend)
			if err != nil {
				return nil, baselineError(sc.Victim, sc.Prepend, err)
			}
			im, err := core.SimulateWithBaseline(g, sc, base, d.counters)
			if routing.Skippable(err) {
				d.counters.AddSkippedUnreachable(1)
				return nil, nil // skippable draw; redrawn from the stream
			}
			if err != nil {
				return nil, fmt.Errorf("pair %v/%v: %w", sc.Victim, sc.Attacker, err)
			}
			if len(im.NewlyPolluted()) == 0 {
				d.counters.AddSkippedIneffective(1)
				return nil, nil
			}
			return im, nil
		})
		if err != nil {
			return nil, sweepError(d.what, err)
		}
		for _, im := range impacts {
			if im != nil && len(usable) < d.pairs {
				usable = append(usable, im)
			}
		}
	}
	if len(usable) < d.pairs/2 {
		return nil, fmt.Errorf("experiment: %s: only %d usable attack pairs", d.what, len(usable))
	}
	return usable, nil
}

func pickMonitors(g *topology.Graph, d int, policy MonitorPolicy, seed int64) ([]bgp.ASN, error) {
	switch policy {
	case MonitorsTopDegree:
		return g.TopByDegree(d), nil
	case MonitorsRandom:
		asns := g.ASNs()
		rng := rand.New(rand.NewSource(stats.DeriveSeedIndexed(seed, "detection.monitors.random", d)))
		rng.Shuffle(len(asns), func(i, j int) { asns[i], asns[j] = asns[j], asns[i] })
		if d > len(asns) {
			d = len(asns)
		}
		return asns[:d], nil
	default:
		return nil, fmt.Errorf("experiment: unknown monitor policy %d", policy)
	}
}
