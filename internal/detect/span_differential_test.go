package detect

// Differential suite for the arena-backed detection path (PR 5): the
// span-based EvaluateScratch and the streaming Detector are compared,
// scenario by scenario, against verbatim copies of the pre-arena
// reference implementations (path-slice DetectChange, map-of-Path
// Detector). The references are frozen here in test code so the hot path
// can keep evolving while the verdict semantics stay pinned.

import (
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// transit returns the unique transit chain of a path: every distinct AS in
// order, excluding the origin run. Element 0 is the monitor's next hop;
// the last element is the origin's direct neighbor.
func transit(p bgp.Path) bgp.Path {
	u := p.Unique()
	if len(u) == 0 {
		return nil
	}
	return u[:len(u)-1]
}

// legacyDetectChange is the original path-slice implementation of the
// paper's Fig. 4 algorithm, kept verbatim as the differential reference.
func legacyDetectChange(monitor bgp.ASN, prev, cur bgp.Path, witnesses []MonitorRoute, rels RelQuerier) []Alarm {
	if len(prev) == 0 || len(cur) == 0 {
		return nil
	}
	prevOrigin, _ := prev.Origin()
	curOrigin, _ := cur.Origin()
	if prevOrigin != curOrigin {
		return nil
	}
	lambdaT := cur.OriginPrepend()
	lambdaPrev := prev.OriginPrepend()
	if lambdaT >= lambdaPrev {
		return nil
	}

	curT := transit(cur)
	var alarms []Alarm
	for _, w := range witnesses {
		if w.Monitor == monitor || len(w.Path) == 0 {
			continue
		}
		if o, _ := w.Path.Origin(); o != curOrigin {
			continue
		}
		lambdaL := w.Path.OriginPrepend()
		if lambdaT >= lambdaL {
			continue
		}
		witT := transit(w.Path)
		if m := curT.CommonSuffixLen(witT); m >= 1 {
			suspect := monitor
			if m < len(curT) {
				suspect = curT[len(curT)-1-m]
			}
			alarms = append(alarms, Alarm{
				Confidence:  High,
				Suspect:     suspect,
				Monitor:     monitor,
				Witness:     w.Monitor,
				RemovedPads: lambdaL - lambdaT,
			})
			continue
		}
		if rels == nil || len(curT) < 2 || len(witT) < 1 {
			continue
		}
		if len(witT)+lambdaL <= len(curT)+lambdaT {
			continue
		}
		asI := curT[0]
		asIm1 := curT[1]
		asL := witT[0]
		var asLm1 bgp.ASN
		if len(witT) >= 2 {
			asLm1 = witT[1]
		}
		hint := false
		switch rels.RelOf(asIm1, asL) {
		case topology.RelProvider:
			hint = true
		case topology.RelPeer:
			hint = !hasPeerStep(curT, curOrigin, rels)
		case topology.RelCustomer:
			hint = asLm1 != 0 && rels.RelOf(asL, asLm1) == topology.RelProvider
		}
		if hint {
			alarms = append(alarms, Alarm{
				Confidence: Possible,
				Suspect:    asI,
				Monitor:    monitor,
				Witness:    w.Monitor,
			})
		}
	}
	return alarms
}

// legacyEvaluate is the original materializing Evaluate, reference copy.
func legacyEvaluate(im *core.Impact, monitors []bgp.ASN, rels RelQuerier) EvalResult {
	baseline, attacked := im.Baseline(), im.Attacked()

	witnesses := make([]MonitorRoute, 0, len(monitors))
	for _, m := range monitors {
		if p := attacked.PathOf(m); p != nil {
			witnesses = append(witnesses, MonitorRoute{Monitor: m, Path: p})
		}
	}

	var res EvalResult
	detectionHops := -1
	for _, m := range monitors {
		prev, cur := baseline.PathOf(m), attacked.PathOf(m)
		alarms := legacyDetectChange(m, prev, cur, witnesses, rels)
		if len(alarms) == 0 {
			continue
		}
		res.Detected = true
		for _, a := range alarms {
			if a.Confidence == High {
				res.DetectedHigh = true
			}
			if a.Suspect == im.Scenario.Attacker {
				res.Attributed = true
			}
		}
		if h := hopsFromAttacker(im, m); h >= 0 && (detectionHops < 0 || h < detectionHops) {
			detectionHops = h
		}
	}

	res.PollutedBeforeDetection = legacyPollutedBefore(im, detectionHops)
	return res
}

// hopsFromAttacker is Impact.HopsFromAttackerIdx by ASN; -1 for an unknown
// AS.
func hopsFromAttacker(im *core.Impact, asn bgp.ASN) int {
	i, ok := im.Attacked().Graph().Index(asn)
	if !ok {
		return -1
	}
	return im.HopsFromAttackerIdx(i)
}

func legacyPollutedBefore(im *core.Impact, detectionHops int) float64 {
	var polluted []bgp.ASN
	g := im.Attacked().Graph()
	for i, v := range im.Attacked().Via {
		if asn := g.ASNAt(int32(i)); v && asn != im.Scenario.Attacker {
			polluted = append(polluted, asn)
		}
	}
	if len(polluted) == 0 {
		return 0
	}
	if detectionHops < 0 {
		return 1
	}
	early := 0
	for _, asn := range polluted {
		if h := hopsFromAttacker(im, asn); h >= 0 && h < detectionHops {
			early++
		}
	}
	return float64(early) / float64(len(polluted))
}

// legacyDetector is the original map-of-cloned-Paths streaming detector,
// reference copy for the Observe differential.
type legacyDetector struct {
	monitors map[bgp.ASN]bool
	rels     RelQuerier
	routes   map[netip.Prefix]map[bgp.ASN]bgp.Path
}

func newLegacyDetector(monitors []bgp.ASN, rels RelQuerier) *legacyDetector {
	m := make(map[bgp.ASN]bool, len(monitors))
	for _, asn := range monitors {
		m[asn] = true
	}
	return &legacyDetector{
		monitors: m,
		rels:     rels,
		routes:   make(map[netip.Prefix]map[bgp.ASN]bgp.Path),
	}
}

func (d *legacyDetector) observe(u bgp.Update) []Alarm {
	if err := u.Validate(); err != nil || !d.monitors[u.Monitor] {
		return nil
	}
	table := d.routes[u.Prefix]
	if table == nil {
		table = make(map[bgp.ASN]bgp.Path)
		d.routes[u.Prefix] = table
	}
	prev := table[u.Monitor]
	if u.Type == bgp.Withdraw {
		delete(table, u.Monitor)
		return nil
	}
	table[u.Monitor] = u.Path.Clone()
	if prev == nil {
		return nil
	}
	witnesses := make([]MonitorRoute, 0, len(table))
	for m, p := range table {
		if m != u.Monitor {
			witnesses = append(witnesses, MonitorRoute{Monitor: m, Path: p})
		}
	}
	sort.Slice(witnesses, func(a, b int) bool { return witnesses[a].Monitor < witnesses[b].Monitor })
	return legacyDetectChange(u.Monitor, prev, u.Path, witnesses, d.rels)
}

func (d *legacyDetector) routeOf(prefix netip.Prefix, monitor bgp.ASN) bgp.Path {
	return d.routes[prefix][monitor].Clone()
}

func diffTestGraph(t testing.TB, n int, seed int64) *topology.Graph {
	t.Helper()
	cfg := topology.DefaultGenConfig(n)
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// diffScenarios draws the mixed scenario matrix: attacker/victim pools
// spanning tier-1, high-degree and arbitrary (mostly stub) ASes, crossed
// with λ ∈ 1..8 and follow/violate export policy. Returns the simulated
// impacts (skippable draws dropped).
func diffScenarios(t *testing.T, g *topology.Graph, perCombo int) []*core.Impact {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	pools := [][]bgp.ASN{g.Tier1s(), g.TopByDegree(50), g.ASNs()}
	var impacts []*core.Impact
	for lambda := 1; lambda <= 8; lambda++ {
		for _, violate := range []bool{false, true} {
			for _, pool := range pools {
				for k := 0; k < perCombo; k++ {
					v := pool[rng.Intn(len(pool))]
					m := g.ASNs()[rng.Intn(g.NumASes())]
					if v == m {
						continue
					}
					im, err := core.Simulate(g, core.Scenario{
						Victim:            v,
						Attacker:          m,
						Prepend:           lambda,
						ViolateValleyFree: violate,
					})
					if errors.Is(err, routing.ErrUnreachableAttacker) {
						continue
					}
					if err != nil {
						t.Fatalf("simulate λ=%d violate=%v %v/%v: %v", lambda, violate, v, m, err)
					}
					impacts = append(impacts, im)
				}
			}
		}
	}
	return impacts
}

// withIsland returns g plus a provider-customer pair linked to nothing
// else: two ASes no AS of g has a route to, or from.
func withIsland(t testing.TB, g *topology.Graph, provider, customer bgp.ASN) *topology.Graph {
	t.Helper()
	b := topology.Rebuild(g)
	if err := b.AddP2C(provider, customer); err != nil {
		t.Fatal(err)
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Two ASes of an island nothing else routes to, and an ASN outside the graph.
const islandTop, islandStub, absent = bgp.ASN(900001), bgp.ASN(900002), bgp.ASN(900003)

// hardImpacts is diffScenarios on a graph with an island plus two dozen
// forged-kind legs, a third of them on the island's stub.
func hardImpacts(t *testing.T) (*topology.Graph, []*core.Impact) {
	t.Helper()
	g := withIsland(t, diffTestGraph(t, 500, 11), islandTop, islandStub)
	impacts := diffScenarios(t, g, 5)
	if len(impacts) < 200 {
		t.Fatalf("only %d usable scenarios, need >= 200 for the differential", len(impacts))
	}
	rng := rand.New(rand.NewSource(43))
	for _, kind := range []core.AttackType{core.AttackOriginHijack, core.AttackNextHopInterception} {
		for k := 0; k < 12; k++ {
			// Every third victim is the island's stub, which no attacker
			// outside it had a route to: the forged claim is all they hear.
			v := g.ASNs()[rng.Intn(g.NumASes())]
			if k%3 == 0 {
				v = islandStub
			}
			m := g.ASNs()[rng.Intn(g.NumASes())]
			if v == m {
				continue
			}
			im, err := core.Simulate(g, core.Scenario{Victim: v, Attacker: m, Type: kind, Prepend: 1 + k%4})
			if err != nil {
				t.Fatalf("simulate %v %v/%v: %v", kind, v, m, err)
			}
			impacts = append(impacts, im)
		}
	}
	return g, impacts
}

// hardMonitors holds the rows on which the baseline has no path to hand the
// rule — the victim, the attacker, an ASN outside the graph, an AS the
// baseline cannot reach — and a duplicate. A fresh slice per call: a scratch
// caches its resolution of a monitor slice by identity.
func hardMonitors(g *topology.Graph, im *core.Impact) []bgp.ASN {
	top := g.TopByDegree(50)
	return append(top, im.Scenario.Victim, im.Scenario.Attacker, absent, islandTop, top[7])
}

// TestEvaluateScratchDifferential runs ≥200 mixed attack scenarios, forged
// origins included (their captured spans carry Prep rewritten to 1), and
// asserts for each: (a) the arena spans for the monitor set decode to exactly
// the paths Result.PathOf materializes, (b) the span-based evaluation returns
// the verdict of the frozen legacy reference, and (c) detectRow folded over
// the scratch's row raises, monitor by monitor, exactly the alarms
// legacyDetectChange raises on the materialized paths. The monitor set is
// hardMonitors, so the previous route EvaluateScratch builds from the
// baseline's scalars is compared against the PathOf-built one where they
// could differ.
// One scratch is reused across all scenarios, so span reuse across Resets is
// under test too.
func TestEvaluateScratchDifferential(t *testing.T) {
	g, impacts := hardImpacts(t)
	sc := NewEvalScratch()
	arena := routing.NewPathArena()
	var spans []routing.PathSpan
	for si, im := range impacts {
		monitors := hardMonitors(g, im)
		monIdx := make([]int32, len(monitors))
		for i, m := range monitors {
			idx, ok := g.Index(m)
			if !ok {
				idx = -1
			}
			monIdx[i] = idx
		}
		// (a) span decode fidelity on both results.
		for _, res := range []*routing.Result{im.Baseline(), im.Attacked()} {
			arena.Reset()
			spans = res.PathsInto(arena, monIdx, spans[:0])
			for k, m := range monitors {
				if got, want := arena.Path(spans[k]), res.PathOf(m); !got.Equal(want) {
					t.Fatalf("scenario %d (%v): monitor %v span %v, PathOf %v",
						si, im.Scenario, m, got, want)
				}
			}
		}
		// (b) verdict equality, Fig. 14 metric included.
		got := EvaluateScratch(im, monitors, g, sc)
		want := legacyEvaluate(im, monitors, g)
		if got != want {
			t.Fatalf("scenario %d (%v):\nspan   %+v\nlegacy %+v", si, im.Scenario, got, want)
		}
		// (c) alarm identity, in order, on the row EvaluateScratch left.
		witnesses := make([]MonitorRoute, 0, len(monitors))
		for _, m := range monitors {
			if p := im.Attacked().PathOf(m); p != nil {
				witnesses = append(witnesses, MonitorRoute{Monitor: m, Path: p})
			}
		}
		for k, m := range monitors {
			prev, cur := im.Baseline().PathOf(m), im.Attacked().PathOf(m)
			var was routing.PathSpan
			if len(prev) > 0 {
				was = routing.PathSpan{Prep: int32(prev.OriginPrepend()), Origin: prev[len(prev)-1]}
			}
			gotA := rowAlarms(sc.arena, monitors, sc.ids[:len(monitors)], sc.atkSpans, k, was, g, nil)
			wantA := legacyDetectChange(m, prev, cur, witnesses, g)
			if !reflect.DeepEqual(gotA, wantA) {
				t.Fatalf("scenario %d (%v) monitor %v:\nrow    %+v\nlegacy %+v", si, im.Scenario, m, gotA, wantA)
			}
		}
	}
	t.Logf("differential over %d scenarios", len(impacts))
}

// TestFoldWindowDifferential: a monitor count is a window of one list.
// Folding a random window [lo, hi) of a row extracted once for the whole
// list gives exactly what EvaluateScratch gives on monitors[lo:hi] alone,
// and what the frozen reference gives — under the ground-truth graph and
// with no relationships at all — on every hard row and forged leg. Two more
// windows per leg are the whole list, where all three flags often hold before
// the last trigger: Fold's trigger skip must change nothing there, and the
// test fails unless it skipped some trigger.
func TestFoldWindowDifferential(t *testing.T) {
	g, impacts := hardImpacts(t)
	rng := rand.New(rand.NewSource(44))
	whole, part := NewEvalScratch(), NewEvalScratch()
	skipped := 0
	for si, im := range impacts {
		monitors := hardMonitors(g, im)
		whole.Extract(im, monitors)
		for w := 0; w < 8; w++ {
			lo := rng.Intn(len(monitors))
			hi := lo + rng.Intn(len(monitors)-lo+1)
			switch w {
			case 0:
				lo, hi = 40, len(monitors) // every hard row at once
			case 6, 7:
				lo, hi = 0, len(monitors)
			}
			var rels RelQuerier
			if w%2 == 0 {
				rels = g
			}
			var got [1]EvalResult
			var hops [1]int
			before := whole.Pairs()
			whole.Fold(lo, []int{hi}, rels, got[:], hops[:])
			if w >= 6 && got[0].Detected && got[0].DetectedHigh && got[0].Attributed &&
				whole.Pairs()-before < triggerPairs(whole, lo, []int{hi}) {
				skipped++
			}
			got[0].PollutedBeforeDetection = whole.PollutedBefore(hops[0])
			sub := slices.Clone(monitors[lo:hi])
			if alone := EvaluateScratch(im, sub, rels, part); got[0] != alone {
				t.Fatalf("scenario %d (%v) window [%d,%d):\nfold  %+v\nalone %+v", si, im.Scenario, lo, hi, got[0], alone)
			}
			if want := legacyEvaluate(im, sub, rels); got[0] != want {
				t.Fatalf("scenario %d (%v) window [%d,%d):\nfold   %+v\nlegacy %+v", si, im.Scenario, lo, hi, got[0], want)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("premise broken: no whole-list fold skipped a trigger")
	}
	t.Logf("%d whole-list folds skipped a trigger", skipped)
}

// triggerPairs is how many pairs Fold(lo, ends) compares when it skips no
// trigger and folds each only over the window up to its own cut: the least
// it compares unless it skips one.
func triggerPairs(sc *EvalScratch, lo int, ends []int) int {
	n, last := 0, slices.Max(ends)
	for t := lo; t < last; t++ {
		if triggers(sc.wasAt(sc.monIdx[t]), sc.atkSpans[t]) {
			own := last
			for _, d := range ends {
				if d > t {
					own = min(own, d)
				}
			}
			n += own - lo - 1
		}
	}
	return n
}

// TestPrefixPassDifferential: one Fold over many ends of the hard list
// gives, end by end, the verdict and the Fig. 14 latency the frozen
// reference gives on monitors[lo:d] — under the ground-truth graph and with
// no relationships, on every hard row (the victim, the attacker, an absent
// ASN, an unreachable AS, a duplicate) and forged leg, from lo = 0 and from
// a random lo. The pass runs once with a cut at every end, and once over a
// few coarse ends, unsorted and one of them twice, as the detection sweep
// passes its counts and latency set. The test fails unless some pass skipped
// a trigger.
func TestPrefixPassDifferential(t *testing.T) {
	g, impacts := hardImpacts(t)
	rng := rand.New(rand.NewSource(45))
	sc := NewEvalScratch()
	m := len(hardMonitors(g, impacts[0]))
	coarse := []int{10, 30, 3, 50, 55, 30, 41}
	res, hops := make([]EvalResult, m), make([]int, m)
	skipped := 0
	for si, im := range impacts {
		monitors := hardMonitors(g, im)
		sc.Extract(im, monitors)
		for _, lo := range []int{0, rng.Intn(m)} {
			var every, shifted []int
			for d := lo + 1; d <= m; d++ {
				every = append(every, d)
			}
			for _, d := range coarse {
				shifted = append(shifted, lo+(d*(m-lo)+m-1)/m)
			}
			for _, ends := range [][]int{every, shifted} {
				for _, rels := range []RelQuerier{g, nil} {
					before := sc.Pairs()
					sc.Fold(lo, ends, rels, res, hops)
					if sc.Pairs()-before < triggerPairs(sc, lo, ends) {
						skipped++
					}
					for j, d := range ends {
						got := res[j]
						got.PollutedBeforeDetection = sc.PollutedBefore(hops[j])
						if want := legacyEvaluate(im, monitors[lo:d], rels); got != want {
							t.Fatalf("scenario %d (%v) rels %v lo %d ends %v window [%d,%d):\npass   %+v\nlegacy %+v",
								si, im.Scenario, rels != nil, lo, ends, lo, d, got, want)
						}
					}
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("premise broken: no pass skipped a trigger")
	}
	t.Logf("%d passes skipped a trigger", skipped)
}

// TestEvaluateScratchZeroAlloc pins the batch side where the streaming side
// already is: a warmed pass over ≥100 impacts, alarms raised, folds every
// verdict out of the scratch's own buffers and allocates nothing — as one
// whole-list evaluation, as one extraction read through nine one-end windows,
// as one extraction read through one Fold over nine ends, and in compare's
// shape, one extraction and one Fold into stack arrays.
func TestEvaluateScratchZeroAlloc(t *testing.T) {
	g := diffTestGraph(t, 500, 11)
	monitors := g.TopByDegree(40)
	impacts := diffScenarios(t, g, 4)
	if len(impacts) < 100 {
		t.Fatalf("only %d impacts, need >= 100", len(impacts))
	}
	sc := NewEvalScratch()
	detected := 0
	ends := []int{4, 8, 12, 16, 20, 25, 30, 35, 40}
	res, hops := make([]EvalResult, len(ends)), make([]int, len(ends))
	passes := map[string]func(){
		"EvaluateScratch": func() {
			for _, im := range impacts {
				if EvaluateScratch(im, monitors, g, sc).Detected {
					detected++
				}
			}
		},
		"one Extract, nine one-end Folds": func() {
			for _, im := range impacts {
				sc.Extract(im, monitors)
				for lo := 0; lo < 9; lo++ {
					sc.Fold(lo, ends[8-lo:][:1], g, res[:1], hops[:1])
					if res[0].Detected {
						detected++
					}
				}
			}
		},
		"one Extract, one Fold over nine ends": func() {
			for _, im := range impacts {
				sc.Extract(im, monitors)
				sc.Fold(0, ends, g, res, hops)
				if res[len(ends)-1].Detected {
					detected++
				}
			}
		},
		"compare's shape": func() {
			for _, im := range impacts {
				var res [1]EvalResult
				var hops [1]int
				sc.Extract(im, monitors)
				sc.Fold(0, []int{len(monitors)}, g, res[:], hops[:])
				if res[0].Detected {
					detected++
				}
			}
		},
	}
	for name, pass := range passes {
		detected = 0
		pass() // grow the arena, the intern table and Fold's buffers
		if detected == 0 {
			t.Fatalf("%s: premise broken: no impact raises an alarm", name)
		}
		if avg := testing.AllocsPerRun(3, pass); avg != 0 {
			t.Errorf("%s: warmed pass over %d impacts allocates %.0f objects, want 0", name, len(impacts), avg)
		}
	}
}

// TestDetectChangeDifferential feeds the same route changes through the
// public path-slice API and the frozen reference.
func TestDetectChangeDifferential(t *testing.T) {
	g := diffTestGraph(t, 500, 11)
	monitors := g.TopByDegree(30)
	impacts := diffScenarios(t, g, 2)
	for si, im := range impacts {
		witnesses := make([]MonitorRoute, 0, len(monitors))
		for _, m := range monitors {
			if p := im.Attacked().PathOf(m); p != nil {
				witnesses = append(witnesses, MonitorRoute{Monitor: m, Path: p})
			}
		}
		for _, m := range monitors {
			prev, cur := im.Baseline().PathOf(m), im.Attacked().PathOf(m)
			got := DetectChange(m, prev, cur, witnesses, g)
			want := legacyDetectChange(m, prev, cur, witnesses, g)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scenario %d monitor %v:\nnew    %+v\nlegacy %+v", si, m, got, want)
			}
		}
	}
}

// detectorUpdateStream renders a deterministic update stream from a set
// of impacts: per impact one prefix; baseline announcements first, then
// under-attack announcements (withdraw where the route vanished), with a
// few duplicate and withdraw/re-announce events mixed in.
func detectorUpdateStream(g *topology.Graph, impacts []*core.Impact, monitors []bgp.ASN, rng *rand.Rand) []bgp.Update {
	var updates []bgp.Update
	for pi, im := range impacts {
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(pi >> 8), byte(pi), 0}), 24)
		for _, m := range monitors {
			if p := im.Baseline().PathOf(m); p != nil {
				updates = append(updates, bgp.Update{Monitor: m, Type: bgp.Announce, Prefix: prefix, Path: p})
			}
		}
		for _, m := range monitors {
			before, after := im.Baseline().PathOf(m), im.Attacked().PathOf(m)
			switch {
			case after != nil:
				updates = append(updates, bgp.Update{Monitor: m, Type: bgp.Announce, Prefix: prefix, Path: after})
			case before != nil:
				updates = append(updates, bgp.Update{Monitor: m, Type: bgp.Withdraw, Prefix: prefix})
			}
			// Occasionally flap: withdraw and re-announce the attack
			// route, exercising slot reuse and first-sight suppression.
			if after != nil && rng.Intn(4) == 0 {
				updates = append(updates, bgp.Update{Monitor: m, Type: bgp.Withdraw, Prefix: prefix})
				updates = append(updates, bgp.Update{Monitor: m, Type: bgp.Announce, Prefix: prefix, Path: after})
			}
		}
	}
	return updates
}

// TestDetectorDifferential replays identical update streams through the
// arena-backed Detector and the frozen legacy detector, asserting every
// Observe returns identical alarms and the two hold the same state: every
// RouteOf of every (prefix, monitor) seen so far agrees every 1,000
// updates and at the end. After the stream, every prefix but one in eight
// is withdrawn and every other prefix replayed, so the route table is swept
// while the kept prefixes hold routes, and its freed ids are reused, under
// the same checks.
func TestDetectorDifferential(t *testing.T) {
	g := diffTestGraph(t, 500, 17)
	monitors := g.TopByDegree(40)
	impacts := diffScenarios(t, g, 2)
	if len(impacts) < 50 {
		t.Fatalf("only %d impacts for the stream", len(impacts))
	}
	rng := rand.New(rand.NewSource(7))
	updates := detectorUpdateStream(g, impacts, monitors, rng)
	var again []bgp.Update
	for _, u := range updates {
		if pi := u.Prefix.Addr().As4()[2]; pi%8 != 0 {
			updates = append(updates, bgp.Update{Monitor: u.Monitor, Type: bgp.Withdraw, Prefix: u.Prefix})
			if pi%2 == 1 {
				again = append(again, u)
			}
		}
	}
	updates = append(updates, again...)

	d := NewDetector(monitors, g)
	ld := newLegacyDetector(monitors, g)
	var seen []netip.Prefix
	freed := 0 // the most route ids ever free at once
	sameState := func(ui int) {
		for _, prefix := range seen {
			for _, m := range monitors {
				if got, want := d.RouteOf(prefix, m), ld.routeOf(prefix, m); !got.Equal(want) {
					t.Fatalf("after update %d: RouteOf(%v, %v): new %v, legacy %v", ui, prefix, m, got, want)
				}
			}
		}
	}
	for ui, u := range updates {
		got := d.Observe(u)
		want := ld.observe(u)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("update %d (%v %v %v):\nnew    %+v\nlegacy %+v",
				ui, u.Monitor, u.Type, u.Prefix, got, want)
		}
		if !slices.Contains(seen, u.Prefix) {
			seen = append(seen, u.Prefix)
		}
		freed = max(freed, len(d.free))
		if ui%1000 == 999 {
			sameState(ui)
		}
	}
	sameState(len(updates) - 1)
	if freed == 0 {
		t.Fatal("premise broken: the replay never swept the route table")
	}
	t.Logf("replayed %d updates over %d prefixes; up to %d route ids free at once", len(updates), len(seen), freed)
}

var alarmSink []Alarm

// TestDetectorObserveZeroAlloc pins warmed Observe at zero allocations:
// equal-body re-announcements with fluctuating prepend counts (trigger
// and non-trigger legs both covered, no alarms raised) must reuse the
// arena slot, the interned segment and the witness scratch.
func TestDetectorObserveZeroAlloc(t *testing.T) {
	prefix := netip.MustParsePrefix("10.0.0.0/24")
	// Monitor 100 watches origin 7; monitor 200 holds a route for a
	// different origin, so the trigger leg walks the witness loop without
	// alarming (origin mismatch).
	d := NewDetector([]bgp.ASN{100, 200}, nil)
	pathA3 := bgp.Path{1, 2, 7, 7, 7}
	pathA2 := bgp.Path{1, 2, 7, 7}
	pathB := bgp.Path{3, 4, 8}
	d.Observe(bgp.Update{Monitor: 200, Type: bgp.Announce, Prefix: prefix, Path: pathB})
	d.Observe(bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA3})
	d.Observe(bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA2}) // warm the trigger leg
	d.Observe(bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA3})

	up3 := bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA3}
	up2 := bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA2}
	if avg := testing.AllocsPerRun(50, func() {
		alarmSink = d.Observe(up2) // λ 3→2: trigger, witness skipped on origin
		alarmSink = d.Observe(up3) // λ 2→3: no trigger
	}); avg != 0 {
		t.Errorf("warmed Observe allocates %.1f objects per run, want 0", avg)
	}
	if len(alarmSink) != 0 {
		t.Fatalf("unexpected alarms: %v", alarmSink)
	}
}

// TestFoldOwnCutDifferential: Fold skips a trigger on the flags that hold at
// its own cut, not at the last one. On the generated attacks above a flag is
// a property of the witness alone: every trigger there routes via the
// attacker, so all of them share its chain and its kept pads. Per-neighbour λ
// breaks that: a monitor whose route avoids the attacker can trigger by
// moving to a neighbour's route with fewer pads. The test draws such attacks
// until one holds a trigger x whose route holds no attacker, a non-trigger w
// that x alarms with, and a trigger t that alarms with neither w nor x but at
// high confidence with some l. On the list [t, w, x, l], with a cut at each
// end, only x detects at end 3, though every flag that x could raise holds
// at end 4 by the time x comes up; each end must match the frozen reference.
func TestFoldOwnCutDifferential(t *testing.T) {
	sc, list := NewEvalScratch(), NewEvalScratch()
	res, hops := make([]EvalResult, 4), make([]int, 4)
	for seed := int64(1); seed <= 5; seed++ {
		g := diffTestGraph(t, 300, seed)
		asns := g.ASNs()
		rng := rand.New(rand.NewSource(46))
		for k := 0; k < 2000; k++ {
			v, m := asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]
			if v == m {
				continue
			}
			per := map[bgp.ASN]int{}
			for _, span := range []func(int32) []int32{g.ProvidersIdx, g.PeersIdx, g.CustomersIdx} {
				for _, n := range neighborASNs(g, v, span) {
					per[n] = 1 + rng.Intn(8)
				}
			}
			im, err := core.Simulate(g, core.Scenario{Victim: v, Attacker: m, Prepend: 3, PerNeighborPrepend: per, ViolateValleyFree: k%2 == 0})
			if errors.Is(err, routing.ErrUnreachableAttacker) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if q := ownCutQuad(sc, im, asns, g); q != nil {
				list.Extract(im, q)
				list.Fold(0, []int{1, 2, 3, 4}, g, res, hops)
				for j := range res {
					got := res[j]
					got.PollutedBeforeDetection = list.PollutedBefore(hops[j])
					if want := legacyEvaluate(im, q[:j+1], g); got != want {
						t.Fatalf("%v list %v end %d:\nfold   %+v\nlegacy %+v", im.Scenario, q, j+1, got, want)
					}
				}
				if res[1].Detected || !res[2].Detected || !res[3].DetectedHigh {
					t.Fatalf("%v list %v: premise broken: ends 2 to 4 give %+v", im.Scenario, q, res[1:])
				}
				t.Logf("%v list %v", im.Scenario, q)
				return
			}
		}
	}
	t.Fatal("premise broken: no per-neighbour-λ attack holds the list")
}

// ownCutQuad finds, in im watched by every AS of asns, the list [t, w, x, l]
// TestFoldOwnCutDifferential folds, or nil.
func ownCutQuad(sc *EvalScratch, im *core.Impact, asns []bgp.ASN, rels RelQuerier) []bgp.ASN {
	sc.Extract(im, asns)
	trig := func(a int) bool { return triggers(sc.wasAt(sc.monIdx[a]), sc.atkSpans[a]) }
	alarms := func(a, b int) []Alarm {
		return rowAlarms(sc.arena, []bgp.ASN{asns[a], asns[b]}, []int32{int32(a), int32(b)}, sc.atkSpans, 0, sc.wasAt(sc.monIdx[a]), rels, nil)
	}
	high := func(a Alarm) bool { return a.Confidence == High }
	for x := range asns {
		if !trig(x) || im.HopsFromAttackerIdx(sc.monIdx[x]) >= 0 || sc.mayAccuse(x) {
			continue
		}
		for w := range asns {
			if trig(w) || len(alarms(x, w)) == 0 {
				continue
			}
			for tr := range asns {
				if tr == x || !trig(tr) || len(alarms(tr, w)) > 0 || len(alarms(tr, x)) > 0 {
					continue
				}
				for l := range asns {
					if l != x && l != w && l != tr && slices.ContainsFunc(alarms(tr, l), high) {
						return []bgp.ASN{asns[tr], asns[w], asns[x], asns[l]}
					}
				}
			}
		}
	}
	return nil
}
