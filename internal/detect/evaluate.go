package detect

import (
	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// EvalResult summarizes one attack instance's detectability from a given
// monitor set (the per-instance datum behind the paper's Figs. 13-14).
type EvalResult struct {
	// Detected: at least one monitor raised an alarm of any confidence.
	Detected bool
	// DetectedHigh: at least one high-confidence (segment conflict) alarm.
	DetectedHigh bool
	// Attributed: some alarm named the true attacker as the suspect.
	Attributed bool
	// PollutedBeforeDetection is the fraction of ultimately-polluted ASes
	// that adopted the bogus route strictly before the first detecting
	// monitor received it (1.0 when the attack goes undetected) — the
	// paper's Fig. 14 metric, with propagation time modeled as AS-hop
	// distance from the attacker along the bogus route.
	PollutedBeforeDetection float64
	// Alarms are all alarms raised across monitors.
	Alarms []Alarm
}

// EvalScratch is per-goroutine reusable state for EvaluateScratch: the
// path arena both routing results extract into, the span tables, the
// witness views and the monitor-index resolution cache. One scratch per
// goroutine and, where a sweep alternates monitor sets, per set (the
// detection sweep keeps one per shard and monitor count); the zero cost of
// reuse is what makes the detection sweeps allocation-light.
type EvalScratch struct {
	arena     *routing.PathArena
	baseSpans []routing.PathSpan
	atkSpans  []routing.PathSpan
	wits      []spanRoute

	// Monitor-index cache: monIdx is valid for exactly this (graph,
	// monitors-slice) pair, compared by identity. The sweep drivers call
	// EvaluateScratch with one monitor slice across many impacts, so the
	// resolution runs once per scratch, not once per instance.
	monIdx []int32
	mons   []bgp.ASN
	g      *topology.Graph
}

// NewEvalScratch returns an empty scratch, ready for EvaluateScratch.
func NewEvalScratch() *EvalScratch {
	return &EvalScratch{arena: routing.NewPathArena()}
}

// Evaluate runs the detection algorithm against one simulated attack: each
// monitor's pre-attack route acts as its previous state, its under-attack
// route as the new state, and all monitors' under-attack routes form the
// collaborative view R.
func Evaluate(im *core.Impact, monitors []bgp.ASN, rels RelQuerier) EvalResult {
	return EvaluateScratch(im, monitors, rels, NewEvalScratch())
}

// EvaluateScratch is Evaluate on reusable scratch state: both routing
// results are extracted into sc's arena as spans in one parent-chain walk
// per monitor, and the algorithm runs on the span views — no per-path
// slices. The verdicts and alarms are identical to Evaluate's. monitors
// must not be mutated while the scratch caches its resolution.
func EvaluateScratch(im *core.Impact, monitors []bgp.ASN, rels RelQuerier, sc *EvalScratch) EvalResult {
	baseline, attacked := im.Baseline(), im.Attacked()
	g := attacked.Graph()

	// Resolve monitor ASNs to dense indices once per (graph, slice).
	if sc.g != g || len(sc.mons) != len(monitors) ||
		(len(monitors) > 0 && &sc.mons[0] != &monitors[0]) {
		sc.monIdx = sc.monIdx[:0]
		for _, m := range monitors {
			i, ok := g.Index(m)
			if !ok {
				i = -1
			}
			sc.monIdx = append(sc.monIdx, i)
		}
		sc.mons = monitors
		sc.g = g
	}

	sc.arena.Reset() // invalidates last round's spans
	sc.baseSpans = baseline.PathsInto(sc.arena, sc.monIdx, sc.baseSpans[:0])
	sc.atkSpans = attacked.PathsInto(sc.arena, sc.monIdx, sc.atkSpans[:0])

	// The collaborative view R: every monitor's under-attack route, in
	// monitor order (routeless monitors carry lambda 0 and are skipped
	// inside the core, matching the legacy witness construction).
	sc.wits = sc.wits[:0]
	for k, m := range monitors {
		sp := sc.atkSpans[k]
		w := spanRoute{monitor: m, lambda: int(sp.Prep), seg: sp.Seg}
		if sp.Prep > 0 {
			w.origin = sp.Origin
			w.transit = sc.arena.Body(sp)
		}
		sc.wits = append(sc.wits, w)
	}

	var res EvalResult
	detectionHops := -1
	for k, m := range monitors {
		prev, cur := sc.baseSpans[k], sc.atkSpans[k]
		curView := spanRoute{monitor: m, lambda: int(cur.Prep), seg: cur.Seg}
		if cur.Prep > 0 {
			curView.origin = cur.Origin
			curView.transit = sc.arena.Body(cur)
		}
		before := len(res.Alarms)
		res.Alarms = detectRoutes(m, int(prev.Prep), prev.Origin, curView, sc.wits, rels, res.Alarms)
		if len(res.Alarms) == before {
			continue
		}
		res.Detected = true
		for _, a := range res.Alarms[before:] {
			if a.Confidence == High {
				res.DetectedHigh = true
			}
			if a.Suspect == im.Scenario.Attacker {
				res.Attributed = true
			}
		}
		// This monitor detects as soon as the bogus route reaches it.
		if h := im.HopsFromAttacker(m); h >= 0 && (detectionHops < 0 || h < detectionHops) {
			detectionHops = h
		}
	}

	res.PollutedBeforeDetection = pollutedBefore(im, detectionHops)
	return res
}

// pollutedBefore computes the Fig. 14 metric: with the bogus route
// spreading outward from the attacker hop by hop, the fraction of
// ultimately-polluted ASes that are strictly closer to the attacker than
// the first detecting monitor. It walks the attack result's Via slice
// directly — no materialized pollution set.
func pollutedBefore(im *core.Impact, detectionHops int) float64 {
	g := im.Attacked().Graph()
	atkIdx, _ := g.Index(im.Scenario.Attacker)
	total, early := 0, 0
	for i, v := range im.Attacked().Via {
		if !v || int32(i) == atkIdx {
			continue
		}
		total++
		if detectionHops >= 0 {
			if h := im.HopsFromAttackerIdx(int32(i)); h >= 0 && h < detectionHops {
				early++
			}
		}
	}
	if total == 0 {
		return 0
	}
	if detectionHops < 0 {
		return 1 // never detected: everyone polluted first
	}
	return float64(early) / float64(total)
}
