package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/detect"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/stats"
	"aspp/internal/topology"
)

// The retained-Impact oracles: detection and compare as they ran before the
// leg visitor — draw chunk by chunk with a private loop, keep every usable
// attack's whole core.Impact, evaluate afterwards. Test-side only; the
// drivers must reproduce them field for field.

type attackDraw struct {
	what    string
	pairs   int
	budget  int
	prepend int
	violate bool
	seed    int64
}

func drawEffectiveAttacks(g *topology.Graph, d attackDraw) ([]*core.Impact, error) {
	rng := rand.New(rand.NewSource(d.seed))
	asns := g.ASNs()
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
		for _, sc := range chunk {
			im, err := core.Simulate(g, sc)
			if errors.Is(err, routing.ErrUnreachableAttacker) {
				continue
			}
			if err != nil {
				return nil, sweepError(d.what, fmt.Errorf("pair %v/%v: %w", sc.Victim, sc.Attacker, err))
			}
			if len(im.NewlyPolluted()) > 0 && len(usable) < d.pairs {
				usable = append(usable, im)
			}
		}
	}
	if len(usable) < d.pairs/2 {
		return nil, fmt.Errorf("experiment: %s: only %d usable attack pairs", d.what, len(usable))
	}
	return usable, nil
}

// retainedMonitors is the monitor set of one count as the sweep picked it
// when every count owned its list: a fresh ranking, or a shuffle seeded by
// the count.
func retainedMonitors(g *topology.Graph, d int, policy MonitorPolicy, seed int64) []bgp.ASN {
	if policy == MonitorsTopDegree {
		return g.TopByDegree(d)
	}
	asns := g.ASNs()
	rng := rand.New(rand.NewSource(stats.DeriveSeedIndexed(seed, "detection.monitors.random", d)))
	rng.Shuffle(len(asns), func(i, j int) { asns[i], asns[j] = asns[j], asns[i] })
	return asns[:min(d, len(asns))]
}

// retainedDetection is a one-column detection run. Its one departure from the
// pre-visitor driver: a point is labelled with the monitors actually watched,
// which differs from the count asked for only above the topology's size.
func retainedDetection(g *topology.Graph, cfg DetectionConfig, col DetectionColumn) (*DetectionOutcome, error) {
	usable, err := drawEffectiveAttacks(g, attackDraw{
		what: "detection sweep", pairs: cfg.Pairs, budget: cfg.Pairs * 20,
		prepend: cfg.Prepend, violate: cfg.Violate, seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	rels := col.Rels
	if rels == nil {
		rels = g
	}
	out := &DetectionOutcome{UsablePairs: len(usable), Accuracy: make([][]AccuracyPoint, 1)}
	latencyCount := cfg.LatencyMonitors
	if latencyCount <= 0 {
		latencyCount = slices.Max(cfg.MonitorCounts)
	}
	counts := cfg.MonitorCounts
	if !slices.Contains(counts, latencyCount) {
		counts = append(slices.Clone(counts), latencyCount)
	}
	for ci, d := range counts {
		monitors := retainedMonitors(g, d, col.Placement, cfg.Seed)
		evals := make([]detect.EvalResult, len(usable))
		for i, im := range usable {
			evals[i] = detect.EvaluateScratch(im, monitors, rels, detect.NewEvalScratch())
		}
		if ci < len(cfg.MonitorCounts) {
			pt := AccuracyPoint{Monitors: len(monitors)}
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
			out.Accuracy[0] = append(out.Accuracy[0], pt)
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

func retainedCompare(g *topology.Graph, cfg CompareConfig) ([]AttackComparison, error) {
	monitors := g.TopByDegree(cfg.Monitors)
	impacts, err := drawEffectiveAttacks(g, attackDraw{
		what: "comparison sweep", pairs: cfg.Pairs, budget: cfg.Pairs * 30,
		prepend: cfg.Prepend, violate: true, seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	score := func(typ core.AttackType, ims []*core.Impact) AttackComparison {
		cmp := AttackComparison{Type: typ, Instances: len(ims)}
		for _, im := range ims {
			cmp.MeanPollution += im.After()
			routes := monitorRoutesFromImpact(im, monitors)
			if _, moas := detect.DetectMOAS(routes); moas {
				cmp.DetectedByMOAS++
			}
			if len(detect.DetectFakeLinks(g, routes)) > 0 {
				cmp.DetectedByFakeLink++
			}
			if detect.EvaluateScratch(im, monitors, g, detect.NewEvalScratch()).Detected {
				cmp.DetectedByASPP++
			}
		}
		if n := float64(cmp.Instances); n > 0 {
			cmp.MeanPollution /= n
			cmp.DetectedByMOAS /= n
			cmp.DetectedByFakeLink /= n
			cmp.DetectedByASPP /= n
		}
		return cmp
	}
	out := []AttackComparison{score(core.AttackASPP, impacts)}
	for _, typ := range []core.AttackType{core.AttackOriginHijack, core.AttackNextHopInterception} {
		forged := make([]*core.Impact, len(impacts))
		for i, aspp := range impacts {
			sc := core.Scenario{Victim: aspp.Scenario.Victim, Attacker: aspp.Scenario.Attacker, Prepend: cfg.Prepend, Type: typ}
			im, err := core.SimulateScratch(g, sc, aspp.Baseline(), nil, nil)
			if err != nil {
				return nil, err
			}
			forged[i] = &im
		}
		out = append(out, score(typ, forged))
	}
	return out, nil
}

// oracleGraphs is what the oracles run over: six generated seeds at n=400,
// plus the graph whose attacker-900 draws are unreachable, so top-up rounds
// run and a draw can end short of its quota.
func oracleGraphs(t *testing.T) map[string]*topology.Graph {
	gs := map[string]*topology.Graph{"unreachable-attacker": unreachableAttackerGraph(t)}
	for seed := int64(1); seed <= 6; seed++ {
		gs[fmt.Sprintf("n400/seed%d", seed)] = expGraph(t, 400, 100+seed)
	}
	return gs
}

func sameOutcome(t *testing.T, what string, got, want any, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err=%v, oracle err=%v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %+v\nwant %+v", what, got, want)
	}
}

// upsideDown answers every relationship question the wrong way round: a
// stand-in for inferred relationships that moves the hint rules' verdicts.
type upsideDown struct{ g *topology.Graph }

func (u upsideDown) RelOf(a, b bgp.ASN) topology.RelTo { return u.g.RelOf(b, a) }

// TestDetectionVisitorMatchesRetained: a three-column run is three
// one-column runs is the frozen oracle, point for point and attack for
// attack — with either placement first (the first column carries the latency
// series), the latency count inside and outside MonitorCounts, and one to
// eight shards (a detection run has one shard per worker).
func TestDetectionVisitorMatchesRetained(t *testing.T) {
	ctx := context.Background()
	same := func(what string, got, want *DetectionOutcome, series int) {
		t.Helper()
		if got.UsablePairs != want.UsablePairs || !slices.Equal(got.Accuracy[series], want.Accuracy[0]) {
			t.Errorf("%s:\n got %d usable, %+v\nwant %d usable, %+v", what, got.UsablePairs, got.Accuracy[series], want.UsablePairs, want.Accuracy[0])
		}
		if series == 0 && (!slices.Equal(got.PollutedBeforeDetection, want.PollutedBeforeDetection) || !slices.Equal(got.LatencyDetected, want.LatencyDetected)) {
			t.Errorf("%s: latency series\n got %v %v\nwant %v %v", what, got.PollutedBeforeDetection, got.LatencyDetected, want.PollutedBeforeDetection, want.LatencyDetected)
		}
	}
	relsMatter := false
	for name, g := range oracleGraphs(t) {
		for _, first := range []MonitorPolicy{MonitorsTopDegree, MonitorsRandom} {
			for _, latency := range []int{9, 5} { // outside MonitorCounts, inside
				cfg := DetectionConfig{
					MonitorCounts: []int{2, 5, 20}, Pairs: 30, Prepend: 3, Violate: true,
					LatencyMonitors: latency, Seed: 7,
				}
				if g.NumASes() < 20 {
					cfg.Pairs, cfg.LatencyMonitors = 16, 0 // latency set = the largest count
				}
				cols := []DetectionColumn{
					{Placement: first},
					{Placement: MonitorsTopDegree + MonitorsRandom - first},
					{Placement: MonitorsTopDegree, Rels: upsideDown{g}},
				}
				oracle := make([]*DetectionOutcome, len(cols))
				for c, col := range cols {
					var err error
					if oracle[c], err = retainedDetection(g, cfg, col); err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
				}
				if first == MonitorsTopDegree && !slices.Equal(oracle[0].Accuracy[0], oracle[2].Accuracy[0]) {
					relsMatter = true
				}
				for _, workers := range []int{1, 2, 4, 8} {
					what := fmt.Sprintf("%s first %d latency %d workers %d", name, first, latency, workers)
					withGOMAXPROCS(t, workers)
					cfg.Columns = cols
					three, err := RunDetectionCtx(ctx, g, cfg)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					for c, col := range cols {
						same(fmt.Sprintf("%s, column %d of three", what, c), three, oracle[c], c)
						cfg.Columns = []DetectionColumn{col}
						one, err := RunDetectionCtx(ctx, g, cfg)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						same(fmt.Sprintf("%s, column %d alone", what, c), one, oracle[c], 0)
					}
				}
			}
		}
	}
	if !relsMatter {
		t.Error("premise broken: upside-down relationships move no accuracy point on any graph")
	}
}

// TestDetectionColumnsShareOneDraw: columns are read off one attack draw.
// An N-column run simulates exactly the legs a one-column run does — every
// one of them either ineffective or usable — and per usable attack it
// extracts once per placement and walks the pollution set once, on one
// scratch per shard and placement.
func TestDetectionColumnsShareOneDraw(t *testing.T) {
	g := expGraph(t, 400, 41)
	var made []*detect.EvalScratch
	defer func(orig func() *detect.EvalScratch) { newEvalScratch = orig }(newEvalScratch)
	newEvalScratch = func() *detect.EvalScratch {
		made = append(made, detect.NewEvalScratch())
		return made[len(made)-1]
	}
	var oneColumn obs.Snapshot
	for _, tc := range []struct {
		cols       []DetectionColumn
		placements int
	}{
		{nil, 1},
		{[]DetectionColumn{{Placement: MonitorsTopDegree}, {Placement: MonitorsRandom}, {Placement: MonitorsTopDegree, Rels: upsideDown{g}}}, 2},
	} {
		const shards = 4
		made = nil
		c := new(obs.Counters)
		withGOMAXPROCS(t, shards)
		out, err := RunDetectionCtx(context.Background(), g, DetectionConfig{
			MonitorCounts: []int{3, 10, 30}, Pairs: 25, Prepend: 3, Violate: true,
			Columns: tc.cols, LatencyMonitors: 10, Seed: 5, Counters: c,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := c.Snapshot()
		if int(s.DeltaPropagations) != out.UsablePairs+int(s.SkippedIneffective) || s.SkippedIneffective == 0 {
			t.Errorf("%d columns: %d usable + %d ineffective != %d attack legs", len(tc.cols), out.UsablePairs, s.SkippedIneffective, s.DeltaPropagations)
		}
		if tc.cols == nil {
			oneColumn = s
		} else if s.BasePropagations != oneColumn.BasePropagations || s.DeltaPropagations != oneColumn.DeltaPropagations ||
			s.SkippedIneffective != oneColumn.SkippedIneffective || s.SkippedUnreachable != oneColumn.SkippedUnreachable {
			t.Errorf("%d columns simulate what one does not:\n got %+v\nwant %+v", len(tc.cols), s, oneColumn)
		}
		extracts, latencies := 0, 0
		for _, sc := range made {
			e, l := sc.Calls()
			extracts, latencies = extracts+e, latencies+l
		}
		if len(made) != shards*tc.placements || extracts != out.UsablePairs*tc.placements || latencies != out.UsablePairs {
			t.Errorf("%d columns: %d scratches, %d extractions, %d latency walks for %d attacks; want %d, %d, %d",
				len(tc.cols), len(made), extracts, latencies, out.UsablePairs, shards*tc.placements, out.UsablePairs*tc.placements, out.UsablePairs)
		}
	}
}

func TestCompareVisitorMatchesRetained(t *testing.T) {
	ctx := context.Background()
	for name, g := range oracleGraphs(t) {
		cfg := CompareConfig{Pairs: 20, Prepend: 3, Monitors: 25, Seed: 5}
		if g.NumASes() < 20 {
			cfg.Pairs, cfg.Monitors = 12, 4
		}
		want, wantErr := retainedCompare(g, cfg)
		for _, workers := range []int{1, 4} {
			withGOMAXPROCS(t, workers)
			got, err := CompareAttackTypesCtx(ctx, g, cfg)
			sameOutcome(t, fmt.Sprintf("%s workers %d", name, workers), got, want, err, wantErr)
		}
	}
}

// TestDrawEndsShort: when the stream runs out before the quota is met the
// draw returns what it found — what eval kept of each effective candidate,
// in draw order — and under half the quota is an error.
func TestDrawEndsShort(t *testing.T) {
	g := unreachableAttackerGraph(t)
	stream := randomAttackStream(g, 11, 60, 3, true)
	var effective []int
	for pos, sc := range stream {
		if im, err := core.Simulate(g, sc); err == nil && len(im.NewlyPolluted()) > 0 {
			effective = append(effective, pos)
		}
	}
	if len(effective) < 4 || len(effective) > 30 {
		t.Fatalf("%d of 60 candidates effective; the test needs a sparse stream", len(effective))
	}
	for _, workers := range []int{1, 4} {
		c := new(obs.Counters)
		r := newLegRunner(g, legOptions{what: "short draw", workers: workers, counters: c})
		var want []core.Scenario
		for _, pos := range effective {
			want = append(want, stream[pos])
		}
		quota := 2*len(effective) - 1 // more than the stream holds, less than twice
		usable, err := firstEffective(context.Background(), r, stream, quota, func(_ int, im *core.Impact) core.Scenario { return im.Scenario })
		if err != nil || !reflect.DeepEqual(usable, want) {
			t.Errorf("workers %d: usable %v err=%v, want %v", workers, usable, err, want)
		}
		if s := c.Snapshot(); int(s.AttackPropagations()+s.SkippedUnreachable) != len(stream) || s.SkippedUnreachable == 0 {
			t.Errorf("workers %d: counters %+v, want the whole %d-candidate stream consumed, some of it unreachable", workers, s, len(stream))
		}
		if _, err := firstEffective(context.Background(), r, stream, 2*len(effective)+2, func(int, *core.Impact) bool { return true }); err == nil {
			t.Errorf("workers %d: %d usable of %d wanted accepted", workers, len(effective), 2*len(effective)+2)
		}
	}
}

// consumedByQuota walks stream serially and returns how many candidates a
// draw must consume for want effective attacks (the whole stream when it
// has fewer), and how many of those are effective.
func consumedByQuota(t *testing.T, g *topology.Graph, stream []core.Scenario, want int) (consumed, effective int) {
	t.Helper()
	for _, sc := range stream {
		if effective == want {
			break
		}
		consumed++
		im, err := core.Simulate(g, sc)
		if errors.Is(err, routing.ErrUnreachableAttacker) {
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if len(im.NewlyPolluted()) > 0 {
			effective++
		}
	}
	return consumed, effective
}

// TestDrawSimulatesWhatItConsumes: a draw stops at the candidate that meets
// its quota — every consumed candidate is either simulated once or skipped
// as unreachable, none past the quota is touched — on a connected graph
// and on the one where top-up rounds replace unreachable draws.
func TestDrawSimulatesWhatItConsumes(t *testing.T) {
	ctx := context.Background()
	withGOMAXPROCS(t, 4)
	for name, g := range map[string]*topology.Graph{"n400": expGraph(t, 400, 41), "unreachable-attacker": unreachableAttackerGraph(t)} {
		const pairs = 12
		consumed, effective := consumedByQuota(t, g, randomAttackStream(g, 3, pairs*20, 3, true), pairs)

		c := new(obs.Counters)
		out, err := RunDetectionCtx(ctx, g, DetectionConfig{
			MonitorCounts: []int{4}, Pairs: pairs, Prepend: 3, Violate: true,
			Seed: 3, Counters: c,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := c.Snapshot()
		if out.UsablePairs != effective || int(s.AttackPropagations()+s.SkippedUnreachable) != consumed ||
			int(s.AttackPropagations()-s.SkippedIneffective) != effective {
			t.Errorf("%s: detection usable=%d, counters %+v; want %d usable from %d consumed candidates",
				name, out.UsablePairs, s, effective, consumed)
		}

		// Compare consumes its own 30× stream the same way, then runs two
		// forged legs per usable pair — full propagations, never skipped.
		consumed, effective = consumedByQuota(t, g, randomAttackStream(g, 3, pairs*30, 3, true), pairs)
		c = new(obs.Counters)
		cmp, err := CompareAttackTypesCtx(ctx, g, CompareConfig{Pairs: pairs, Prepend: 3, Monitors: 4, Seed: 3, Counters: c})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s = c.Snapshot()
		if cmp[0].Instances != effective || int(s.DeltaPropagations+s.SkippedUnreachable) != consumed ||
			int(s.FullPropagations) != 2*effective {
			t.Errorf("%s: compare instances=%d, counters %+v; want %d from %d consumed candidates and %d forged legs",
				name, cmp[0].Instances, s, effective, consumed, 2*effective)
		}
	}
}

// TestDetectionAndCompareCancelMidDraw: a cancel landing while a shard is
// between legs surfaces ctx.Err(), and the draw does not run on.
func TestDetectionAndCompareCancelMidDraw(t *testing.T) {
	g := expGraph(t, 300, 32)
	withGOMAXPROCS(t, 1) // one shard: the fault hook counts unsynchronized
	orig := propagateBaseline
	defer func() { propagateBaseline = orig }()
	for name, run := range map[string]func(context.Context) error{
		"detection": func(ctx context.Context) error {
			cfg := DefaultDetectionConfig()
			cfg.Pairs = 40
			_, err := RunDetectionCtx(ctx, g, cfg)
			return err
		},
		"compare": func(ctx context.Context) error {
			_, err := CompareAttackTypesCtx(ctx, g, DefaultCompareConfig())
			return err
		},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		propagateBaseline = func(gg *topology.Graph, ann routing.Announcement, s *routing.Scratch) (*routing.Result, error) {
			if calls++; calls == 3 {
				cancel() // the third victim's baseline pulls the plug mid-draw
			}
			return orig(gg, ann, s)
		}
		if err := run(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err=%v, want errors.Is(..., context.Canceled)", name, err)
		}
		if calls > 4 {
			t.Errorf("%s: %d baselines computed after the cancel", name, calls-3)
		}
		cancel()
	}
}

// TestRunnerForgedLegNeedsNoRoute: the reachability pre-filter is the ASPP
// attacker's precondition only. On unreachableAttackerGraph AS 900 never
// hears 200's prefix: its forged legs are simulated and counted, its ASPP
// leg is skipped — or fatal where there is nothing to redraw.
func TestRunnerForgedLegNeedsNoRoute(t *testing.T) {
	g := unreachableAttackerGraph(t)
	legs := []core.Scenario{
		{Victim: 200, Attacker: 900, Prepend: 3, Type: core.AttackOriginHijack},
		{Victim: 200, Attacker: 900, Prepend: 3, Type: core.AttackNextHopInterception},
		{Victim: 200, Attacker: 900, Prepend: 3},
	}
	c := new(obs.Counters)
	r := newLegRunner(g, legOptions{what: "forged legs", workers: 2, counters: c})
	visited := make([]bgp.ASN, len(legs))
	counts, done, err := r.run(context.Background(), legs, func(_, i int, im *core.Impact) bool {
		visited[i] = im.Scenario.Attacker
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !done[0] || !done[1] || done[2] || visited[0] != 900 || visited[1] != 900 || visited[2] != 0 {
		t.Errorf("done=%v visited=%v, want the forged legs simulated and the ASPP leg skipped", done, visited)
	}
	for i := range legs[:2] {
		want, err := core.Simulate(g, legs[i])
		if err != nil {
			t.Fatal(err)
		}
		if counts[i] != want.Counts || counts[i].PollutedAfter == 0 {
			t.Errorf("%v: runner counts %+v, core.Simulate %+v", legs[i], counts[i], want.Counts)
		}
	}
	if s := c.Snapshot(); s.FullPropagations != 2 || s.DeltaPropagations != 0 || s.SkippedUnreachable != 1 {
		t.Errorf("counters %+v, want 2 full propagations and 1 unreachable skip", s)
	}
	fatal := newLegRunner(g, legOptions{what: "forged legs", workers: 1, allFatal: true})
	if _, _, err := fatal.run(context.Background(), legs[:2], nil); err != nil {
		t.Errorf("allFatal, forged legs only: %v", err)
	}
	if _, _, err := fatal.run(context.Background(), legs, nil); !errors.Is(err, core.ErrAttackerSeesNoRoute) {
		t.Errorf("allFatal, ASPP leg on the dark prefix: err=%v, want ErrAttackerSeesNoRoute", err)
	}
}
