package detect

import (
	"slices"
	"unsafe"

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
// into, their spans with the id row 0..m−1 detectRow reads them through, and
// the monitor-index resolution cache. Nothing else is kept: the rule reads
// transit chains off the row, and the previous route's two scalars off the
// baseline result — no witness views, no baseline table — and hands Fold
// three verdict flags per row, not alarms. One
// scratch per goroutine and monitor list (the detection sweep keeps one per
// shard and placement, and reads every monitor count as a window of the
// list); warmed, an evaluation allocates nothing.
type EvalScratch struct {
	arena    *routing.PathArena
	atkSpans []routing.PathSpan
	ids      []int32      // ids[i] == i: ids[lo:d] is the window [lo, d)'s row into atkSpans
	im       *core.Impact // the attack Extract last read; Fold's verdicts are about it

	// Monitor-index cache: monIdx is valid for exactly this (graph,
	// monitors-slice) pair, compared by identity. The sweep drivers evaluate
	// one monitor slice across many impacts, so the resolution runs once per
	// scratch, not once per instance.
	monIdx []int32
	mons   []bgp.ASN
	g      *topology.Graph

	// Fold's buffers: the distinct ends, ascending; per cut, the least hops
	// of a trigger that first alarms there; a trigger's row for one cut.
	cuts, hopsAt []int
	mbuf         []bgp.ASN
	rbuf         []int32

	// Attribution candidates for the key (candPos, candB, candWhole) — see
	// attribute — ascending slots, sized with the list; candPos < 0: none
	// built since Extract. pairMons/pairRow hold the two-slot row
	// [trigger, candidate] that confirms one.
	cand      []int32
	candPos   int
	candB     bgp.ASN
	candWhole bool
	pairMons  [2]bgp.ASN
	pairRow   [2]int32

	extracts, latencies, pairs int
}

// NewEvalScratch returns an empty scratch, ready for EvaluateScratch.
func NewEvalScratch() *EvalScratch {
	return &EvalScratch{arena: routing.NewPathArena()}
}

// EvaluateScratch runs the detection algorithm against one simulated attack:
// each monitor's pre-attack route acts as its previous state, its
// under-attack route as the new state, and all monitors' under-attack routes
// form the collaborative view R. It is Extract and a Fold over the whole
// list, plus the latency. monitors must not be mutated while the scratch
// caches its resolution.
func EvaluateScratch(im *core.Impact, monitors []bgp.ASN, rels RelQuerier, sc *EvalScratch) EvalResult {
	var res [1]EvalResult
	var hops [1]int
	sc.Extract(im, monitors)
	sc.Fold(0, []int{len(monitors)}, rels, res[:], hops[:])
	res[0].PollutedBeforeDetection = sc.PollutedBefore(hops[0])
	return res[0]
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
	for i := len(sc.ids); i < len(monitors); i++ {
		sc.ids = append(sc.ids, int32(i))
	}
	sc.cand, sc.candPos = slices.Grow(sc.cand[:0], len(monitors)), -1
	sc.im = im
	sc.extracts++
	sc.pairs = 0
}

// Fold gives, for every end d of ends, the verdict of the window
// monitors[lo:d] of the extracted list taken as the whole vantage-point set,
// without the latency, into res[j], and into hops[j] the hop distance at
// which that window's first detecting monitor received the bogus route (-1:
// undetected) — in one scan of the longest window's (trigger, witness) pairs.
// Every rule reads one pair — the trigger's two routes, the witness's route
// and rels; a duplicate ASN is dropped pair by pair — so a window raises an
// alarm exactly when it holds an alarming pair, and detectRow may decide a
// trigger's pairs on any row that holds the trigger. A pair counts from the
// shortest window that holds both its monitors, its cut; each flag first
// holds at the least cut of the pairs that raise it, and trigger t counts
// toward the hops from e(t), its own least alarming cut. So trigger t is
// folded over the row up to its own cut, then over the witnesses each later
// cut adds, and stops at the cut where neither e(t) nor a flag can still
// improve; within a cut, detectRow hands it the three flags through a sink,
// not alarms, and ends the row once none can still change. A trigger that
// can change nothing is skipped: every flag it could raise already holds at
// its own cut (one whose route holds no attacker names no suspect that is
// one), and its hops are no lower than the least hops of the cuts up to its
// own. A trigger's rows scan for Attributed only while a hint of it could
// name the attacker; otherwise only a High alarm with one suffix length can,
// so attribute asks that of the few witnesses that can have it, and the rows
// end, as every other trigger's, once any and High hold. ends must not be
// empty, and no end may lie below lo.
func (sc *EvalScratch) Fold(lo int, ends []int, rels RelQuerier, res []EvalResult, hops []int) {
	sc.cuts = append(sc.cuts[:0], ends...)
	slices.Sort(sc.cuts)
	sc.cuts = slices.Compact(sc.cuts)
	cuts, never := sc.cuts, len(sc.cuts)
	det, high, attr := never, never, never
	sc.hopsAt = sc.hopsAt[:0] // per cut: the least hops of a trigger whose e(t) it is
	for range cuts {
		sc.hopsAt = append(sc.hopsAt, -1)
	}
	for t := lo; t < cuts[never-1]; t++ {
		i := sc.monIdx[t]
		was := sc.wasAt(i)
		if !triggers(was, sc.atkSpans[t]) {
			continue
		}
		own, _ := slices.BinarySearch(cuts, t+1) // the least cut holding t
		// A trigger's route held, so its index resolved. Only a hint names
		// the chain's top AS, and only one naming the attacker makes its
		// rows scan for Attributed; else attribute asks the candidates.
		pos, curT := sc.attackerAt(t), sc.arena.SegBody(sc.atkSpans[t].Seg)
		scan := rels != nil && len(curT) > 0 && curT[0] == sc.im.Scenario.Attacker
		accuse, h, least := scan || pos > 0, sc.im.HopsFromAttackerIdx(i), -1
		for _, x := range sc.hopsAt[:own+1] {
			least = minHops(least, x)
		}
		if det <= own && high <= own && (attr <= own || !accuse) && (h < 0 || least >= 0 && h >= least) {
			continue
		}
		first := never
		for c := own; c < never && (first > c || high > c || attr > c && scan); c++ {
			mons, row, mi := sc.mons[lo:cuts[c]], sc.ids[lo:cuts[c]], t-lo
			if c > own {
				sc.mbuf = append(append(sc.mbuf[:0], sc.mons[t]), sc.mons[cuts[c-1]:cuts[c]]...)
				sc.rbuf = append(append(sc.rbuf[:0], int32(t)), sc.ids[cuts[c-1]:cuts[c]]...)
				mons, row, mi = sc.mbuf, sc.rbuf, 0
			}
			sc.pairs += len(row) - 1
			// A flag already held at c, or one the trigger cannot raise,
			// starts set, so the row ends once it can change nothing.
			s := sink{fold: true, attacker: sc.im.Scenario.Attacker,
				any: first < c, high: high <= c, attr: attr <= c || !scan}
			detectRow(sc.arena, mons, row, sc.atkSpans, mi, was, rels, &s)
			if s.any {
				first = min(first, c)
			}
			if s.high {
				high = min(high, c)
			}
			if s.attr && scan {
				attr = min(attr, c)
			}
		}
		if pos > 0 && !scan && attr > own {
			attr = sc.attribute(t, pos, lo, own, attr, was, rels)
		}
		if first < never {
			sc.hopsAt[first] = minHops(sc.hopsAt[first], h)
		}
		det = min(det, first)
	}
	for c := 1; c < never; c++ {
		sc.hopsAt[c] = minHops(sc.hopsAt[c], sc.hopsAt[c-1])
	}
	for j, d := range ends {
		c, _ := slices.BinarySearch(cuts, d)
		res[j], hops[j] = EvalResult{Detected: det <= c, DetectedHigh: high <= c, Attributed: attr <= c}, sc.hopsAt[c]
	}
}

// minHops is the lesser of two hop distances, -1 standing for none.
func minHops(a, b int) int {
	if a < 0 || b >= 0 && b < a {
		return b
	}
	return a
}

// wasAt is the pre-attack route of the monitor at graph index i, as far as
// the rule reads it; an unknown or unreachable monitor and the origin itself
// had none.
func (sc *EvalScratch) wasAt(i int32) routing.PathSpan {
	baseline := sc.im.Baseline()
	if i < 0 || i == baseline.OriginIdx() || baseline.Class[i] == routing.ClassNone {
		return routing.PathSpan{}
	}
	return routing.PathSpan{Prep: int32(baseline.Prep[i]), Origin: baseline.Origin()}
}

// attackerAt is where the attacker sits in the transit chain of the monitor
// in slot k, counted from the chain's end: len(chain) when the monitor is the
// attacker, -1 when no alarm of it can name the attacker (every suspect is
// the monitor or an AS of its chain). PathsInto walks parent chains, which
// hold each AS once and never the monitor, so the position is unique.
func (sc *EvalScratch) attackerAt(k int) int {
	atk, body := sc.im.Scenario.Attacker, sc.arena.SegBody(sc.atkSpans[k].Seg)
	if sc.mons[k] == atk {
		return len(body)
	}
	if j := slices.Index(body, atk); j >= 0 {
		return len(body) - 1 - j
	}
	return -1
}

// attribute is the least cut, from own on and below attr, at which trigger t
// raises an alarm naming the attacker, or attr if none does. The attacker
// sits at pos ≥ 1 from the end of t's chain curT, and no hint can name it (Fold
// scans for those), so only a High alarm can: one whose common suffix length
// is pos. That needs the witness's chain to hold b = curT[len(curT)-pos] at
// position pos from its end and, unless t is the attacker (the suffix cannot
// outgrow curT), no attacker right above b. Those slots are the candidates,
// built once per key; each is confirmed on the two-slot row [t, k], walked
// from lo, since a witness ahead of t counts from t's own cut.
func (sc *EvalScratch) attribute(t, pos, lo, own, attr int, was routing.PathSpan, rels RelQuerier) int {
	atk, curT := sc.im.Scenario.Attacker, sc.arena.SegBody(sc.atkSpans[t].Seg)
	b, whole := curT[len(curT)-pos], pos == len(curT)
	if sc.candPos != pos || sc.candB != b || sc.candWhole != whole {
		sc.cand, sc.candPos, sc.candB, sc.candWhole = sc.cand[:0], pos, b, whole
		for k, sp := range sc.atkSpans {
			if sp.Prep == 0 {
				continue
			}
			w := sc.arena.SegBody(sp.Seg)
			if n := len(w); n >= pos && w[n-pos] == b && (whole || n == pos || w[n-pos-1] != atk) {
				sc.cand = append(sc.cand, int32(k))
			}
		}
	}
	i, _ := slices.BinarySearch(sc.cand, int32(lo))
	sc.pairMons[0], sc.pairRow[0] = sc.mons[t], int32(t)
	for _, k := range sc.cand[i:] {
		c, _ := slices.BinarySearch(sc.cuts, int(k)+1)
		if c = max(c, own); c >= attr {
			break
		}
		sc.pairMons[1], sc.pairRow[1] = sc.mons[k], k
		sc.pairs++
		s := sink{fold: true, attacker: atk, any: true, high: true}
		if detectRow(sc.arena, sc.pairMons[:], sc.pairRow[:], sc.atkSpans, 0, was, rels, &s); s.attr {
			return c
		}
	}
	return attr
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

// Pairs reports how many (trigger, witness) pairs Fold has handed detectRow
// since the last Extract, a row that ends early counted whole and each
// candidate attribute confirms on its two-slot row as one: the detection
// sweep's detect_pairs counter.
func (sc *EvalScratch) Pairs() int { return sc.pairs }

// MemoryBytes is the scratch's resident footprint: its path arena, span row,
// monitor-index cache and Fold's cut, row and candidate buffers at capacity.
// Extract resets the arena, so this stays at the largest single attack's size
// however many attacks the scratch evaluates; the detection sweep and
// compare report it as the arena_bytes gauge.
func (sc *EvalScratch) MemoryBytes() int64 {
	return int64(unsafe.Sizeof(*sc)) + sc.arena.MemoryBytes() + sliceBytes(sc.atkSpans) + sliceBytes(sc.ids) +
		sliceBytes(sc.monIdx) + sliceBytes(sc.cuts) + sliceBytes(sc.hopsAt) + sliceBytes(sc.mbuf) + sliceBytes(sc.rbuf) +
		sliceBytes(sc.cand)
}
