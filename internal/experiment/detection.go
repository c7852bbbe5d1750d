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

// DetectionColumn is one way of watching the drawn attacks: where the
// monitors sit and which relationships feed the hint rules.
type DetectionColumn struct {
	Placement MonitorPolicy
	// Rels supplies AS relationships to the hint rules; nil uses the
	// ground-truth graph.
	Rels detect.RelQuerier
}

// DetectionConfig parameterizes the detection experiments.
type DetectionConfig struct {
	// MonitorCounts are the vantage-point set sizes to evaluate; each must
	// be at least 1, and one above the topology's size watches every AS.
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
	// Columns are evaluated on the one attack draw, so their series are
	// comparable by construction; empty means one top-degree, ground-truth
	// column. The latency series is the first column's.
	Columns []DetectionColumn
	// LatencyMonitors is the monitor-set size used for the Fig. 14
	// polluted-before-detection series (0 = the largest entry of
	// MonitorCounts). The paper's 150 monitors cover ~0.5% of its ~30k-AS
	// Internet; on smaller generated topologies a coverage-matched count
	// reproduces the figure's shape.
	LatencyMonitors int
	Seed            int64
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
		Seed:          1,
	}
}

// AccuracyPoint is one monitor-count datum of Fig. 13.
type AccuracyPoint struct {
	// Monitors is the number of vantage points actually watched.
	Monitors int
	// Detected is the fraction of attacks raising any alarm; High counts
	// only segment-conflict alarms; Attributed counts attacks where some
	// alarm named the true attacker.
	Detected, High, Attributed float64
}

// DetectionOutcome carries both figures' data from one run.
type DetectionOutcome struct {
	// Accuracy holds one series per column, in column order.
	Accuracy [][]AccuracyPoint
	// PollutedBeforeDetection holds, for the first column's latency monitor
	// set, one fraction per attack instance (Fig. 14's CDF input);
	// undetected attacks contribute 1.0. LatencyDetected marks which
	// instances the latency monitor set detected at all, so callers can
	// condition the CDF on detection.
	PollutedBeforeDetection []float64
	LatencyDetected         []bool
	// UsablePairs is the number of simulated attacks (attacker reachable
	// and stripping effective).
	UsablePairs int
}

// placement is one monitor list and, per monitor count, the window
// list[starts[ci]:ends[ci]] that count watches: a top-degree count is a
// prefix of one ranking, the random sets — one shuffle per count, seeded by
// the count — lie end to end.
type placement struct {
	policy       MonitorPolicy
	list         []bgp.ASN
	starts, ends []int
}

func newPlacement(g *topology.Graph, policy MonitorPolicy, counts []int, seed int64) (placement, error) {
	p := placement{policy: policy}
	switch policy {
	case MonitorsTopDegree:
		p.list = g.TopByDegree(slices.Max(counts))
		for _, d := range counts {
			p.starts, p.ends = append(p.starts, 0), append(p.ends, min(d, len(p.list)))
		}
	case MonitorsRandom:
		for _, d := range counts {
			asns := g.ASNs()
			rng := rand.New(rand.NewSource(stats.DeriveSeedIndexed(seed, "detection.monitors.random", d)))
			rng.Shuffle(len(asns), func(i, j int) { asns[i], asns[j] = asns[j], asns[i] })
			p.starts = append(p.starts, len(p.list))
			p.list = append(p.list, asns[:min(d, len(asns))]...)
			p.ends = append(p.ends, len(p.list))
		}
	default:
		return p, fmt.Errorf("experiment: unknown monitor policy %d", policy)
	}
	return p, nil
}

// newEvalScratch is a seam for tests, which count the scratches a sweep makes
// and what it asks of them.
var newEvalScratch = detect.NewEvalScratch

// RunDetectionCtx draws random interception attacks until cfg.Pairs of them
// are effective and evaluates the detection algorithm in every column under
// every monitor-set size (paper Figs. 13-14). Each attack is evaluated
// inside its leg (legVisitor), while its routing results are live in the
// shard's Scratch: every shard owns one detect.EvalScratch per placement,
// the attacked routes of a placement's list are extracted once per attack,
// every run of counts whose windows share a start reads its verdicts off one
// Fold over that row (a top-degree column is one run, a random column one per
// count), and only the EvalResults outlive the leg. Returns (nil, ctx.Err())
// when cancelled.
func RunDetectionCtx(ctx context.Context, g *topology.Graph, cfg DetectionConfig) (*DetectionOutcome, error) {
	if len(cfg.MonitorCounts) == 0 || cfg.Pairs <= 0 {
		return nil, errors.New("experiment: empty detection config")
	}
	if cfg.Prepend < 2 {
		return nil, errors.New("experiment: detection needs λ >= 2 (something to strip)")
	}
	if d := slices.Min(cfg.MonitorCounts); d < 1 {
		return nil, fmt.Errorf("experiment: detection needs monitor counts >= 1, got %d", d)
	}
	// The latency set is one more window after the counts', which the first
	// column alone folds.
	nc := len(cfg.MonitorCounts)
	counts := append(slices.Clone(cfg.MonitorCounts), cfg.LatencyMonitors)
	if cfg.LatencyMonitors <= 0 {
		counts[nc] = slices.Max(cfg.MonitorCounts)
	}
	// Columns of one placement share its list, and so its extraction.
	type column struct {
		place int
		rels  detect.RelQuerier
	}
	asked := cfg.Columns
	if len(asked) == 0 {
		asked = []DetectionColumn{{Placement: MonitorsTopDegree}}
	}
	var places []placement
	cols := make([]column, len(asked))
	for c, col := range asked {
		pi := slices.IndexFunc(places, func(p placement) bool { return p.policy == col.Placement })
		if pi < 0 {
			p, err := newPlacement(g, col.Placement, counts, cfg.Seed)
			if err != nil {
				return nil, err
			}
			pi, places = len(places), append(places, p)
		}
		cols[c] = column{pi, col.Rels}
		if col.Rels == nil {
			cols[c].rels = g
		}
	}

	r := newLegRunner(g, legOptions{what: "detection sweep", counters: cfg.Counters})
	scratch := make([]*detect.EvalScratch, len(r.shards)*len(places)) // [shard][placement]
	for i := range scratch {
		scratch[i] = newEvalScratch()
	}
	stream := randomAttackStream(g, cfg.Seed, cfg.Pairs*20, cfg.Prepend, cfg.Violate)
	usable, err := firstEffective(ctx, r, stream, cfg.Pairs, func(shard int, im *core.Impact) []detect.EvalResult {
		sc := scratch[shard*len(places):][:len(places)]
		for pi, p := range places {
			sc[pi].Extract(im, p.list)
		}
		// [column][count, then the latency set's, which only the first
		// column reads]
		evals, hops := make([]detect.EvalResult, len(cols)*(nc+1)), make([]int, nc+1)
		for c, col := range cols {
			s, p, k := sc[col.place], places[col.place], nc
			if c == 0 {
				k++
			}
			res := evals[c*(nc+1):][:k]
			for i := 0; i < k; {
				j := i + 1
				for j < k && p.starts[j] == p.starts[i] {
					j++
				}
				s.Fold(p.starts[i], p.ends[i:j], col.rels, res[i:j], hops[i:j])
				i = j
			}
			if c == 0 {
				res[nc].PollutedBeforeDetection = s.PollutedBefore(hops[nc])
			}
		}
		pairs := 0
		for _, s := range sc {
			pairs += s.Pairs()
		}
		cfg.Counters.Add(obs.DetectPairs, int64(pairs))
		return evals
	})
	if err != nil {
		return nil, err
	}
	for _, s := range scratch {
		cfg.Counters.Max(obs.ArenaBytes, s.MemoryBytes())
	}

	out := &DetectionOutcome{
		Accuracy:                make([][]AccuracyPoint, len(cols)),
		PollutedBeforeDetection: make([]float64, len(usable)),
		LatencyDetected:         make([]bool, len(usable)),
		UsablePairs:             len(usable),
	}
	n := float64(len(usable))
	for c := range cols {
		p := places[cols[c].place]
		for ci := range nc {
			pt := AccuracyPoint{Monitors: p.ends[ci] - p.starts[ci]}
			for _, evals := range usable {
				ev := evals[c*(nc+1)+ci]
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
			pt.Detected /= n
			pt.High /= n
			pt.Attributed /= n
			out.Accuracy[c] = append(out.Accuracy[c], pt)
		}
	}
	for k, evals := range usable {
		out.PollutedBeforeDetection[k] = evals[nc].PollutedBeforeDetection
		out.LatencyDetected[k] = evals[nc].Detected
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
