package experiment

import (
	"context"
	"strings"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/topology"
	"aspp/internal/trace"
)

func expGraph(t testing.TB, n int, seed int64) *topology.Graph {
	t.Helper()
	cfg := topology.DefaultGenConfig(n)
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g
}

func TestSamplePairsTier1(t *testing.T) {
	g := expGraph(t, 500, 31)
	pairs, err := SamplePairsCtx(context.Background(), g, PairConfig{
		Kind: PairsTier1, N: 30, Prepend: 3, Seed: 1,
	})
	if err != nil {
		t.Fatalf("SamplePairs: %v", err)
	}
	if len(pairs) != 30 {
		t.Fatalf("got %d pairs, want 30", len(pairs))
	}
	for i, p := range pairs {
		if p.VictimTier != 1 || p.AttackTier != 1 {
			t.Errorf("pair %d not tier-1/tier-1: %+v", i, p)
		}
		if p.After < 0 || p.After > 1 || p.Before < 0 || p.Before > 1 {
			t.Errorf("pair %d fractions out of range: %+v", i, p)
		}
		if i > 0 && pairs[i-1].After < p.After {
			t.Errorf("pairs not ranked descending at %d", i)
		}
	}
	// Paper Fig. 7: tier-1 on tier-1 attacks pollute substantially in the
	// strongest instances.
	if pairs[0].After < 0.2 {
		t.Errorf("strongest tier-1 hijack pollutes only %.2f", pairs[0].After)
	}
}

func TestSamplePairsRandomWeakerThanTier1(t *testing.T) {
	// Paper Figs. 7 vs 8: random (mostly edge) attacker/victim pairs are
	// less effective than tier-1 pairs on average.
	g := expGraph(t, 500, 31)
	t1, err := SamplePairsCtx(context.Background(), g, PairConfig{Kind: PairsTier1, N: 25, Prepend: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := SamplePairsCtx(context.Background(), g, PairConfig{Kind: PairsRandom, N: 25, Prepend: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mean := func(ps []PairImpact) float64 {
		s := 0.0
		for _, p := range ps {
			s += p.After
		}
		return s / float64(len(ps))
	}
	if mean(rnd) >= mean(t1) {
		t.Errorf("random-pair mean pollution %.3f >= tier-1 mean %.3f", mean(rnd), mean(t1))
	}
}

func TestSamplePairsDeterministic(t *testing.T) {
	g := expGraph(t, 300, 32)
	cfg := PairConfig{Kind: PairsRandom, N: 15, Prepend: 3, Seed: 9, Workers: 4}
	a, err := SamplePairsCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SamplePairsCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair %d differs across runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSamplePairsValidation(t *testing.T) {
	g := expGraph(t, 300, 32)
	if _, err := SamplePairsCtx(context.Background(), g, PairConfig{Kind: PairsRandom, N: 0, Prepend: 3}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := SamplePairsCtx(context.Background(), g, PairConfig{Kind: PairsRandom, N: 5, Prepend: 0}); err == nil {
		t.Error("λ=0 accepted")
	}
	if _, err := SamplePairsCtx(context.Background(), g, PairConfig{Kind: 99, N: 5, Prepend: 3}); err == nil {
		t.Error("bad kind accepted")
	}
}

func TestSweepPrependMonotone(t *testing.T) {
	// Figs. 9-12's common shape: pollution is nondecreasing in λ and
	// saturates.
	g := expGraph(t, 500, 33)
	attacker, err := PickTier1ByDegree(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := PickTier1ByDegree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	points, err := SweepPrependCfgCtx(context.Background(), g, SweepConfig{Victim: victim, Attacker: attacker, MaxLambda: 8})
	if err != nil {
		t.Fatalf("SweepPrepend: %v", err)
	}
	if len(points) != 8 {
		t.Fatalf("got %d points, want 8", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Lambda != i+1 {
			t.Errorf("point %d has λ=%d", i, points[i].Lambda)
		}
		if points[i].After+1e-12 < points[i-1].After {
			t.Errorf("pollution decreased at λ=%d: %.4f -> %.4f",
				points[i].Lambda, points[i-1].After, points[i].After)
		}
		// Before (no attack) must not depend on λ... it can, slightly:
		// longer padding shifts baseline tie-breaks. It must stay in
		// range regardless.
		if points[i].Before < 0 || points[i].Before > 1 {
			t.Errorf("before out of range at λ=%d", points[i].Lambda)
		}
	}
	if points[7].After <= points[0].After {
		t.Errorf("padding gained nothing: λ=1 %.3f vs λ=8 %.3f",
			points[0].After, points[7].After)
	}
}

func TestSweepViolateBeatsFollowForStubAttacker(t *testing.T) {
	// Fig. 12: a stub attacker that honors valley-free barely pollutes;
	// violating export policy grows with λ.
	g := expGraph(t, 500, 34)
	victim, err := PickTier1ByDegree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := PickStub(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	follow, err := SweepPrependCfgCtx(context.Background(), g, SweepConfig{Victim: victim, Attacker: attacker, MaxLambda: 8})
	if err != nil {
		t.Fatal(err)
	}
	violate, err := SweepPrependCfgCtx(context.Background(), g, SweepConfig{Victim: victim, Attacker: attacker, MaxLambda: 8, Violate: true})
	if err != nil {
		t.Fatal(err)
	}
	if violate[7].After < follow[7].After {
		t.Errorf("violate (%.3f) < follow (%.3f) at λ=8", violate[7].After, follow[7].After)
	}
	// A stub that follows the rules cannot pollute anyone: it has no
	// customers to export to.
	if follow[7].After != 0 {
		t.Errorf("rule-following stub polluted %.3f, want 0", follow[7].After)
	}
}

func TestPickers(t *testing.T) {
	g := expGraph(t, 500, 35)
	before := append([]bgp.ASN(nil), g.Tier1s()...)
	a, err := PickTier1ByDegree(g, 0)
	if err != nil || g.Tier(a) != 1 {
		t.Errorf("PickTier1ByDegree(0) = %v tier %d, err %v", a, g.Tier(a), err)
	}
	// Tier1s hands out shared read-only storage; the picker's degree sort
	// must work on a copy, not reorder the graph's view in place.
	for i, asn := range g.Tier1s() {
		if asn != before[i] {
			t.Fatalf("PickTier1ByDegree reordered g.Tier1s(): %v, want %v", g.Tier1s(), before)
		}
	}
	b, err := PickTier1ByDegree(g, 999)
	if err != nil || g.Tier(b) != 1 {
		t.Errorf("PickTier1ByDegree(big) = %v, err %v", b, err)
	}
	c, err := PickContentStub(g)
	if err != nil || !g.IsStub(c) {
		t.Errorf("PickContentStub = %v, err %v", c, err)
	}
	if len(g.Peers(c)) == 0 {
		t.Errorf("content stub %v has no peers", c)
	}
	d, err := PickStub(g, 3)
	if err != nil || !g.IsStub(d) || len(g.Providers(d)) < 2 {
		t.Errorf("PickStub = %v, err %v", d, err)
	}
}

func TestRunDetectionAccuracyGrowsWithMonitors(t *testing.T) {
	g := expGraph(t, 600, 36)
	cfg := DetectionConfig{
		MonitorCounts: []int{5, 25, 100, 300},
		Pairs:         60,
		Prepend:       3,
		Violate:       true,
		Seed:          1,
	}
	out, err := RunDetectionCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("RunDetection: %v", err)
	}
	if out.UsablePairs < 30 {
		t.Fatalf("only %d usable pairs", out.UsablePairs)
	}
	if len(out.Accuracy) != 1 {
		t.Fatalf("default column list gave %d series, want 1", len(out.Accuracy))
	}
	acc := out.Accuracy[0]
	if len(acc) != 4 {
		t.Fatalf("got %d accuracy points", len(acc))
	}
	for i := 1; i < len(acc); i++ {
		if acc[i].Detected+0.05 < acc[i-1].Detected {
			t.Errorf("accuracy dropped with more monitors: %v", acc)
		}
	}
	// Paper Fig. 13 shape: large monitor sets detect nearly everything.
	if acc[len(acc)-1].Detected < 0.85 {
		t.Errorf("detection with 300 top-degree monitors = %.2f, want >= 0.85", acc[len(acc)-1].Detected)
	}
	if acc[0].Detected >= acc[len(acc)-1].Detected && acc[0].Detected == 1 {
		t.Errorf("tiny monitor set already perfect (%.2f); experiment not discriminating", acc[0].Detected)
	}
	// Fig. 14 data: one fraction per pair, all within [0,1].
	if len(out.PollutedBeforeDetection) != out.UsablePairs {
		t.Fatalf("polluted-before series has %d entries, want %d",
			len(out.PollutedBeforeDetection), out.UsablePairs)
	}
	for _, f := range out.PollutedBeforeDetection {
		if f < 0 || f > 1 {
			t.Fatalf("polluted-before fraction %v out of range", f)
		}
	}
}

func TestRunDetectionRandomMonitorsWeaker(t *testing.T) {
	// The monitor-policy ablation: random monitor sets of the same size
	// should not beat top-degree sets (degree-central monitors see more
	// route diversity).
	g := expGraph(t, 600, 37)
	out, err := RunDetectionCtx(context.Background(), g, DetectionConfig{
		MonitorCounts: []int{40},
		Pairs:         50,
		Prepend:       3,
		Violate:       true,
		Columns:       []DetectionColumn{{Placement: MonitorsTopDegree}, {Placement: MonitorsRandom}},
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	top, rnd := out.Accuracy[0][0], out.Accuracy[1][0]
	if rnd.Detected > top.Detected+0.05 {
		t.Errorf("random monitors (%.2f) clearly beat top-degree (%.2f)", rnd.Detected, top.Detected)
	}
}

func TestRunDetectionValidation(t *testing.T) {
	g := expGraph(t, 300, 38)
	ok := DetectionConfig{MonitorCounts: []int{10}, Pairs: 10, Prepend: 3, Violate: true}
	for name, mutate := range map[string]func(*DetectionConfig){
		"empty monitor counts":         func(c *DetectionConfig) { c.MonitorCounts = nil },
		"λ=1 (nothing to strip)":       func(c *DetectionConfig) { c.Prepend = 1 },
		"a monitor count of 0":         func(c *DetectionConfig) { c.MonitorCounts = []int{10, 0} },
		"a negative monitor count":     func(c *DetectionConfig) { c.MonitorCounts = []int{-1, 10} },
		"an unknown monitor placement": func(c *DetectionConfig) { c.Columns = []DetectionColumn{{}} },
	} {
		cfg := ok
		mutate(&cfg)
		if _, err := RunDetectionCtx(context.Background(), g, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// A count above the topology watches every AS, and says so — under either
	// placement, and as the latency set.
	cfg := ok
	cfg.MonitorCounts, cfg.LatencyMonitors = []int{10, 5000}, 9000
	cfg.Columns = []DetectionColumn{{Placement: MonitorsTopDegree}, {Placement: MonitorsRandom}}
	out, err := RunDetectionCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, series := range out.Accuracy {
		if len(series) != 2 || series[0].Monitors != 10 || series[1].Monitors != g.NumASes() {
			t.Errorf("column %d: series %+v, want counts 10 and %d", c, series, g.NumASes())
		}
	}
}

func TestFacebookCaseStudyReproducesPaperRoutes(t *testing.T) {
	cs, err := FacebookCaseStudy(200, 1)
	if err != nil {
		t.Fatalf("FacebookCaseStudy: %v", err)
	}
	im := cs.Impact

	// Paper §III: the normal route at AT&T is 7018 3356 32934×5 (7 hops
	// including AT&T itself); the anomalous route is 7018 4134 9318
	// 32934×3 (6 ASNs, 3 Facebook copies).
	before, after := im.PathsAt(ASATT)
	if got, want := before.String(), "3356 32934 32934 32934 32934 32934"; got != want {
		t.Errorf("AT&T before = %q, want %q", got, want)
	}
	if got, want := after.String(), "4134 9318 32934 32934 32934"; got != want {
		t.Errorf("AT&T after = %q, want %q", got, want)
	}
	// NTT flips to the same route (paper: 2914 4134 9318 32934×3).
	_, nttAfter := im.PathsAt(ASNTT)
	if got, want := nttAfter.String(), "4134 9318 32934 32934 32934"; got != want {
		t.Errorf("NTT after = %q, want %q", got, want)
	}
	// Level3 keeps its direct customer route.
	_, l3After := im.PathsAt(ASLevel3)
	if got, want := l3After.String(), "32934 32934 32934 32934 32934"; got != want {
		t.Errorf("Level3 after = %q, want %q", got, want)
	}
	// The hijack captures a large share of the backdrop.
	if im.After() < 0.5 {
		t.Errorf("pollution = %.2f, want majority of the Internet", im.After())
	}

	// Table I: the hijacked traceroute detours through Asia and at least
	// doubles the end-to-end RTT.
	normal, hijacked := cs.Traceroutes(1)
	lastRTT := func(h []trace.Hop) int64 { return h[len(h)-1].RTT.Milliseconds() }
	if lastRTT(hijacked) < 2*lastRTT(normal) {
		t.Errorf("hijacked RTT %dms < 2x normal %dms", lastRTT(hijacked), lastRTT(normal))
	}
	var sawChina, sawKorea bool
	for _, h := range hijacked {
		if h.AS == ASChinaTelecom {
			sawChina = true
		}
		if h.AS == ASKoreanISP {
			sawKorea = true
		}
	}
	if !sawChina || !sawKorea {
		t.Errorf("hijacked traceroute misses the detour: china=%v korea=%v", sawChina, sawKorea)
	}

	// The rendering helpers must mention the key routes.
	chain := cs.AnnouncementChain()
	if !strings.Contains(chain, "4134 9318 32934 32934 32934") {
		t.Errorf("announcement chain missing anomalous route:\n%s", chain)
	}
}

func TestFacebookPrefixStudyOnlyBackupPrefixesAffected(t *testing.T) {
	cs, err := FacebookCaseStudy(150, 1)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := cs.PrefixStudy()
	if err != nil {
		t.Fatalf("PrefixStudy: %v", err)
	}
	if len(outcomes) != 10 {
		t.Fatalf("got %d prefixes, want 10", len(outcomes))
	}
	backup, quiet := 0, 0
	for _, o := range outcomes {
		if o.ViaBackup {
			backup++
			if o.PollutedFrac < 0.5 {
				t.Errorf("front-end prefix %v intercepted only %.2f", o.Prefix, o.PollutedFrac)
			}
		} else {
			quiet++
			if o.PollutedFrac != 0 {
				t.Errorf("Level3-only prefix %v intercepted %.2f, want 0 (valley-free forbids the export)", o.Prefix, o.PollutedFrac)
			}
		}
	}
	if backup != 2 || quiet != 8 {
		t.Errorf("prefix split = %d/%d, want 2 front-end / 8 quiet", backup, quiet)
	}
	rendered := RenderPrefixStudy(outcomes)
	if !strings.Contains(rendered, "69.171.224.0/20") || !strings.Contains(rendered, "Level3 only") {
		t.Errorf("render missing content:\n%s", rendered)
	}
}

func TestCompareAttackTypes(t *testing.T) {
	g := expGraph(t, 500, 61)
	cfg := DefaultCompareConfig()
	cfg.Pairs = 15
	cfg.Monitors = 60
	out, err := CompareAttackTypesCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("CompareAttackTypes: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d comparisons, want 3", len(out))
	}
	byType := make(map[core.AttackType]AttackComparison, 3)
	for _, c := range out {
		byType[c.Type] = c
		if c.Instances == 0 {
			t.Fatalf("%v: no instances", c.Type)
		}
		if c.MeanPollution < 0 || c.MeanPollution > 1 {
			t.Errorf("%v: pollution %v out of range", c.Type, c.MeanPollution)
		}
	}

	aspp := byType[core.AttackASPP]
	origin := byType[core.AttackOriginHijack]
	nexthop := byType[core.AttackNextHopInterception]

	// The paper's §II.B contrast, quantified:
	// (1) ASPP interception triggers neither MOAS nor fake-link alarms...
	if aspp.DetectedByMOAS != 0 {
		t.Errorf("ASPP attack tripped MOAS detection (%.2f)", aspp.DetectedByMOAS)
	}
	if aspp.DetectedByFakeLink != 0 {
		t.Errorf("ASPP attack tripped fake-link detection (%.2f)", aspp.DetectedByFakeLink)
	}
	// ...but is caught by prepend-consistency checking.
	if aspp.DetectedByASPP < 0.8 {
		t.Errorf("ASPP detector caught only %.2f of ASPP attacks", aspp.DetectedByASPP)
	}
	// (2) Origin hijack trips MOAS detection essentially always.
	if origin.DetectedByMOAS < 0.9 {
		t.Errorf("MOAS detector caught only %.2f of origin hijacks", origin.DetectedByMOAS)
	}
	// (3) Next-hop interception fabricates the M-V link: fake-link
	// detection catches it, MOAS stays silent (the true origin is kept).
	if nexthop.DetectedByFakeLink < 0.9 {
		t.Errorf("fake-link detector caught only %.2f of next-hop attacks", nexthop.DetectedByFakeLink)
	}
	if nexthop.DetectedByMOAS != 0 {
		t.Errorf("next-hop attack tripped MOAS (%.2f)", nexthop.DetectedByMOAS)
	}
}

func TestCompareAttackTypesValidation(t *testing.T) {
	g := expGraph(t, 300, 62)
	if _, err := CompareAttackTypesCtx(context.Background(), g, CompareConfig{Pairs: 0, Prepend: 3, Monitors: 10}); err == nil {
		t.Error("zero pairs accepted")
	}
	if _, err := CompareAttackTypesCtx(context.Background(), g, CompareConfig{Pairs: 5, Prepend: 1, Monitors: 10}); err == nil {
		t.Error("λ=1 accepted")
	}
}

func TestSusceptibilityMatrix(t *testing.T) {
	g := expGraph(t, 500, 63)
	cfg := DefaultSusceptibilityConfig()
	cfg.PairsPerCell = 8
	cells, err := SusceptibilityMatrixCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("SusceptibilityMatrix: %v", err)
	}
	byKey := make(map[[2]int]TierCell, len(cells))
	for _, c := range cells {
		byKey[[2]int{c.VictimTier, c.AttackerTier}] = c
		if c.Instances == 0 {
			t.Errorf("empty cell %d/%d", c.VictimTier, c.AttackerTier)
		}
		if c.MeanPollution < 0 || c.MeanPollution > 1 || c.MaxPollution < c.MeanPollution {
			t.Errorf("cell %d/%d stats inconsistent: %+v", c.VictimTier, c.AttackerTier, c)
		}
	}
	// §VI-B direction 1: for a fixed victim tier, tier-1 attackers out-
	// pollute edge attackers on average.
	for vt := 1; vt <= cfg.MaxTier; vt++ {
		core, coreOK := byKey[[2]int{vt, 1}]
		edge, edgeOK := byKey[[2]int{vt, cfg.MaxTier}]
		if coreOK && edgeOK && core.MeanPollution+0.15 < edge.MeanPollution {
			t.Errorf("victim tier %d: edge attackers (%.2f) clearly beat core attackers (%.2f)",
				vt, edge.MeanPollution, core.MeanPollution)
		}
	}
	// §VI-B direction 2 (valley-free regime): against a core attacker,
	// tier-1 victims resist at least as well as edge victims.
	coreVsCore, ok1 := byKey[[2]int{1, 1}]
	edgeVsCore, ok2 := byKey[[2]int{cfg.MaxTier, 1}]
	if ok1 && ok2 && coreVsCore.MeanPollution > edgeVsCore.MeanPollution+0.2 {
		t.Errorf("tier-1 victims (%.2f) more susceptible to core attackers than edge victims (%.2f)",
			coreVsCore.MeanPollution, edgeVsCore.MeanPollution)
	}
	// Edge attackers following the rules capture (nearly) nobody.
	if edgeAtk, ok := byKey[[2]int{1, cfg.MaxTier}]; ok && edgeAtk.MeanPollution > 0.05 {
		t.Errorf("rule-following edge attackers polluted %.2f of tier-1 victims", edgeAtk.MeanPollution)
	}
}

func TestSusceptibilityValidation(t *testing.T) {
	g := expGraph(t, 300, 64)
	if _, err := SusceptibilityMatrixCtx(context.Background(), g, SusceptibilityConfig{PairsPerCell: 0, MaxTier: 3, Prepend: 3}); err == nil {
		t.Error("zero pairs accepted")
	}
	if _, err := SusceptibilityMatrixCtx(context.Background(), g, SusceptibilityConfig{PairsPerCell: 3, MaxTier: 1, Prepend: 3}); err == nil {
		t.Error("MaxTier=1 accepted")
	}
}
