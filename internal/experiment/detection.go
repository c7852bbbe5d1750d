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

// RunDetectionCtx draws random interception attacks until cfg.Pairs of them
// are effective and evaluates the detection algorithm under every
// monitor-set size (paper Figs. 13-14). Each attack is evaluated inside its
// leg (legVisitor), while its routing results are live in the shard's
// Scratch: every shard owns one detect.EvalScratch per monitor set, so each
// set's indices resolve once, and only the EvalResults outlive the leg.
// Returns (nil, ctx.Err()) when cancelled.
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
	latencyCount := cfg.LatencyMonitors
	if latencyCount <= 0 {
		latencyCount = slices.Max(cfg.MonitorCounts)
	}
	// A latency count outside MonitorCounts gets its own evaluation, which
	// contributes no accuracy point.
	counts := cfg.MonitorCounts
	if !slices.Contains(counts, latencyCount) {
		counts = append(slices.Clone(counts), latencyCount)
	}
	monitors := make([][]bgp.ASN, len(counts))
	for ci, d := range counts {
		var err error
		if monitors[ci], err = pickMonitors(g, d, cfg.Policy, cfg.Seed); err != nil {
			return nil, err
		}
	}

	r, err := newLegRunner(g, legOptions{what: "detection sweep", workers: cfg.Workers, counters: cfg.Counters})
	if err != nil {
		return nil, err
	}
	scratch := make([]*detect.EvalScratch, len(r.shards)*len(counts)) // [shard][monitor set]
	for i := range scratch {
		scratch[i] = detect.NewEvalScratch()
	}
	stream := randomAttackStream(g, cfg.Seed, cfg.Pairs*20, cfg.Prepend, cfg.Violate)
	usable, err := firstEffective(ctx, r, stream, cfg.Pairs, func(shard int, im *core.Impact) []detect.EvalResult {
		evals := make([]detect.EvalResult, len(counts)) // one per monitor set
		for ci := range counts {
			evals[ci] = detect.EvaluateScratch(im, monitors[ci], rels, scratch[shard*len(counts)+ci])
		}
		return evals
	})
	if err != nil {
		return nil, err
	}

	out := &DetectionOutcome{UsablePairs: len(usable)}
	for ci, d := range counts {
		if ci < len(cfg.MonitorCounts) {
			pt := AccuracyPoint{Monitors: d}
			for _, evals := range usable {
				ev := evals[ci]
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
			out.PollutedBeforeDetection = make([]float64, len(usable))
			out.LatencyDetected = make([]bool, len(usable))
			for k, evals := range usable {
				out.PollutedBeforeDetection[k] = evals[ci].PollutedBeforeDetection
				out.LatencyDetected[k] = evals[ci].Detected
			}
		}
	}
	return out, nil
}

// randomAttackStream draws budget interception candidates — victim and
// attacker uniform over all ASes, never equal — from one rng, up front, so
// the k-th candidate is the same however many of them a draw consumes
// (DESIGN §5f).
func randomAttackStream(g *topology.Graph, seed int64, budget, prepend int, violate bool) []core.Scenario {
	rng := rand.New(rand.NewSource(seed))
	asns := g.ASNs()
	stream := make([]core.Scenario, 0, budget)
	for len(stream) < budget {
		v := asns[rng.Intn(len(asns))]
		m := asns[rng.Intn(len(asns))]
		if v != m {
			stream = append(stream, core.Scenario{Victim: v, Attacker: m, Prepend: prepend, ViolateValleyFree: violate})
		}
	}
	return stream
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
