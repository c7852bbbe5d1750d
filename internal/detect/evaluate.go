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
}

// EvalScratch is per-goroutine reusable state for evaluating attacks against
// one monitor list: the path arena the under-attack routes are extracted
// into, their span row, the alarm buffer each monitor's verdict is folded
// from and the monitor-index resolution cache. Nothing else is kept: the
// rule reads transit chains off the row, and the previous route's two
// scalars off the baseline result — no witness views, no baseline table. One
// scratch per goroutine and monitor list (the detection sweep keeps one per
// shard and placement, and reads every monitor count as a window of the
// list); warmed, an evaluation allocates nothing.
type EvalScratch struct {
	arena    *routing.PathArena
	atkSpans []routing.PathSpan
	alarms   []Alarm
	im       *core.Impact // the attack Extract last read; Fold's verdicts are about it

	// Monitor-index cache: monIdx is valid for exactly this (graph,
	// monitors-slice) pair, compared by identity. The sweep drivers evaluate
	// one monitor slice across many impacts, so the resolution runs once per
	// scratch, not once per instance.
	monIdx []int32
	mons   []bgp.ASN
	g      *topology.Graph

	extracts, latencies int
}

// NewEvalScratch returns an empty scratch, ready for EvaluateScratch.
func NewEvalScratch() *EvalScratch {
	return &EvalScratch{arena: routing.NewPathArena()}
}

// EvaluateScratch runs the detection algorithm against one simulated attack:
// each monitor's pre-attack route acts as its previous state, its
// under-attack route as the new state, and all monitors' under-attack routes
// form the collaborative view R. It is the two halves below over the whole
// list, plus the latency. monitors must not be mutated while the scratch
// caches its resolution.
func EvaluateScratch(im *core.Impact, monitors []bgp.ASN, rels RelQuerier, sc *EvalScratch) EvalResult {
	sc.Extract(im, monitors)
	res, hops := sc.Fold(0, len(monitors), rels)
	res.PollutedBeforeDetection = sc.PollutedBefore(hops)
	return res
}

// Extract reads im's under-attack routes of monitors into sc's arena as one
// span row, in one parent-chain walk per monitor. im stays borrowed until the
// next Extract.
func (sc *EvalScratch) Extract(im *core.Impact, monitors []bgp.ASN) {
	attacked := im.Attacked()
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
	sc.atkSpans = attacked.PathsInto(sc.arena, sc.monIdx, sc.atkSpans[:0])
	sc.im = im
	sc.extracts++
}

// Fold runs detectRow once per monitor of the window [lo, hi) of the
// extracted list, with that window as the whole vantage-point set — the
// verdict EvaluateScratch gives on monitors[lo:hi] — and returns it without
// the latency, plus the hop distance at which the first detecting monitor
// received the bogus route (-1: undetected).
func (sc *EvalScratch) Fold(lo, hi int, rels RelQuerier) (res EvalResult, hops int) {
	im, baseline := sc.im, sc.im.Baseline()
	mons, row, idx := sc.mons[lo:hi], sc.atkSpans[lo:hi], sc.monIdx[lo:hi]
	hops = -1
	for k, i := range idx {
		// The monitor's pre-attack route, as far as the rule reads it; an
		// unknown or unreachable monitor and the origin itself had none.
		var was routing.PathSpan
		if i >= 0 && i != baseline.OriginIdx() && baseline.Class[i] != routing.ClassNone {
			was = routing.PathSpan{Prep: baseline.Prep[i], Origin: baseline.Origin()}
		}
		sc.alarms = detectRow(sc.arena, mons, row, k, was, rels, sc.alarms[:0])
		if len(sc.alarms) == 0 {
			continue
		}
		res.Detected = true
		for _, a := range sc.alarms {
			if a.Confidence == High {
				res.DetectedHigh = true
			}
			if a.Suspect == im.Scenario.Attacker {
				res.Attributed = true
			}
		}
		// This monitor detects as soon as the bogus route reaches it (it
		// holds a route, so its index resolved).
		if h := im.HopsFromAttackerIdx(i); h >= 0 && (hops < 0 || h < hops) {
			hops = h
		}
	}
	return res, hops
}

// PollutedBefore computes the Fig. 14 metric for the extracted attack: with
// the bogus route spreading outward from the attacker hop by hop, the
// fraction of ultimately-polluted ASes that are strictly closer to the
// attacker than the first detecting monitor, detectionHops away (Fold's
// second result). It walks the attack result's Via slice directly — no
// materialized pollution set. The attacker needs no skipping: it adopts no
// route through itself, so it carries no via bit (core's pollution counts
// rest on the same).
func (sc *EvalScratch) PollutedBefore(detectionHops int) float64 {
	sc.latencies++
	im := sc.im
	total, early := 0, 0
	for i, v := range im.Attacked().Via {
		if !v {
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

// Calls reports how many extractions and latency walks sc has run; the
// detection sweep's tests pin them per attack.
func (sc *EvalScratch) Calls() (extracts, latencies int) { return sc.extracts, sc.latencies }
