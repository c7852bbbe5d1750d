package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/core"
	"aspp/internal/defense"
	"aspp/internal/detect"
	"aspp/internal/experiment"
	"aspp/internal/measure"
	"aspp/internal/obs"
	"aspp/internal/relinfer"
	"aspp/internal/routing"
	"aspp/internal/serve"
	"aspp/internal/stats"
	"aspp/internal/topology"
)

// The traced pass re-drives the workloads' work inside the harness, one
// span around each call into a layer's public function. Nothing inside
// the program is instrumented: a layer is timed from outside, and counts
// come from the obs.Counters the drivers already accept and from
// serve.Stats.

const (
	microSample    = 64 // origins / attackers per routing micro-timing
	siblingLambdas = 8  // fig11 sweeps λ = 1..8
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// layers is the traced pass's state.
type layers struct {
	h    *harness
	tr   *tracer
	res  *result
	seed int64
}

// span times one call.
func (l *layers) span(name string, parent int, f func() error) (time.Duration, error) {
	id := l.tr.start(name, parent)
	err := f()
	d := l.tr.end(id)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// each times n calls, one span per call, microReps times over, and
// returns the median call.
func (l *layers) each(name string, parent int, n int, f func(i int) error) (time.Duration, error) {
	var ds []float64
	for rep := 0; rep < l.h.scale.microReps; rep++ {
		for i := 0; i < n; i++ {
			id := l.tr.start(name, parent)
			err := f(i)
			ds = append(ds, float64(l.tr.end(id)))
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return time.Duration(median(ds)), nil
}

// mallocs counts heap allocations made by f.
func mallocs(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// tracedPass runs every layer group and returns the per-layer metrics.
func (h *harness) tracedPass(ctx context.Context, seed int64) (*result, error) {
	t0 := time.Now()
	h.tr = newTracer()
	defer func() { h.tr = nil }()
	l := &layers{h: h, tr: h.tr, res: newResult(), seed: seed}
	for _, group := range []func(context.Context) error{l.figs, l.sweep, l.serveChurn, l.serveGrowth} {
		if err := group(ctx); err != nil {
			return nil, err
		}
	}
	res := l.res
	res.set("asppbench.build_s", h.buildSecs, "s")
	res.set("serve.dropped", float64(res.dropped), "count")
	res.set("serve.frames_bad", float64(res.framesBad), "count")
	res.set("serve.alarms_lost", float64(res.alarmsLost), "count")
	res.finish()
	res.set("failed_share", float64(res.Failed)/float64(res.Attempted), "ratio")
	res.set("trace.wall_s", time.Since(t0).Seconds(), "s")

	path := filepath.Join(h.outDir, "trace.json")
	if err := writeChromeTrace(path, h.tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(h.log, "== self time by span (%d spans, written to %s)\n", len(h.tr.spans), path)
	writeSelfTable(h.log, selfTimes(h.tr.spans))
	for _, def := range perLayer {
		if _, ok := res.Metrics[def.Name]; !ok {
			return nil, fmt.Errorf("the traced pass produced no %s", def.Name)
		}
	}
	return res, nil
}

// sampleAnns spreads microSample origins over the AS index space, with
// λ from 1 to 8.
func sampleAnns(g *topology.Graph) []routing.Announcement {
	asns := g.ASNs()
	anns := make([]routing.Announcement, microSample)
	for i := range anns {
		anns[i] = routing.Announcement{Origin: asns[(i*131)%len(asns)], Prepend: 1 + i%8}
	}
	return anns
}

// sampleAttackers returns microSample attackers that hold a route in
// base, spread over the AS index space.
func sampleAttackers(g *topology.Graph, base *routing.Result) []routing.Attacker {
	asns := g.ASNs()
	var out []routing.Attacker
	for i := 0; len(out) < microSample && i < len(asns); i++ {
		a := asns[(i*197)%len(asns)]
		if a != base.Origin() && base.Reachable(a) {
			out = append(out, routing.Attacker{AS: a, KeepPrepend: 1})
		}
	}
	return out
}

// routingMicro times the propagation kernels on g with warmed scratch
// state. suffix is "4k" or "80k".
func (l *layers) routingMicro(g *topology.Graph, parent int, suffix string) (victim routing.Announcement, attackers []routing.Attacker, err error) {
	anns := sampleAnns(g)
	s := routing.NewScratch()
	if _, err = routing.PropagateScratch(g, anns[0], s); err != nil {
		return
	}
	d, err := l.each("routing.PropagateScratch", parent, len(anns), func(i int) error {
		_, err := routing.PropagateScratch(g, anns[i], s)
		return err
	})
	if err != nil {
		return
	}
	l.res.set("routing.propagate"+suffix+"_us", us(d), "us")

	victim = routing.Announcement{Origin: g.ASNs()[g.NumASes()/2], Prepend: 4}
	base, err := routing.Propagate(g, victim)
	if err != nil {
		return
	}
	attackers = sampleAttackers(g, base)
	if len(attackers) == 0 {
		err = errors.New("no reachable attacker in the sample")
		return
	}
	d, err = l.each("routing.PropagateAttackDelta", parent, len(attackers), func(i int) error {
		_, err := routing.PropagateAttackDelta(g, victim, attackers[i], base, s)
		return err
	})
	if err != nil {
		return
	}
	l.res.set("routing.delta"+suffix+"_us", us(d), "us")
	return victim, attackers, nil
}

// figs drives the layers behind `asppbench -exp all -n 4000`.
func (l *layers) figs(ctx context.Context) error {
	res, sc := l.res, l.h.scale
	root := l.tr.start("figs4k", -1)
	defer l.tr.end(root)

	var g *topology.Graph
	d, err := l.span("topology.Generate", root, func() (err error) {
		cfg := topology.DefaultGenConfig(sc.figsN)
		cfg.Seed = l.seed
		g, err = topology.Generate(cfg)
		return err
	})
	if err != nil {
		return err
	}
	res.set("topology.generate4k_ms", ms(d), "ms")

	victim, attackers, err := l.routingMicro(g, root, "4k")
	if err != nil {
		return err
	}
	anns := sampleAnns(g)
	s := routing.NewScratch()
	routing.PropagateScratch(g, anns[0], s)
	res.set("routing.allocs_per_propagate", mallocs(func() {
		for _, ann := range anns {
			routing.PropagateScratch(g, ann, s)
		}
	})/float64(len(anns)), "count")

	// Path extraction: one Result's monitor paths into an arena.
	var monIdx []int32
	for _, m := range g.TopByDegree(100) {
		if i, ok := g.Index(m); ok {
			monIdx = append(monIdx, i)
		}
	}
	base, err := routing.Propagate(g, victim)
	if err != nil {
		return err
	}
	arena := routing.NewPathArena()
	var spans []routing.PathSpan
	d, err = l.each("routing.Result.PathsInto", root, microSample, func(int) error {
		arena.Reset()
		spans = base.PathsInto(arena, monIdx, spans[:0])
		return nil
	})
	if err != nil {
		return err
	}
	res.set("routing.paths_into_ns_per_monitor", float64(d)/float64(len(monIdx)), "ns")

	// core.Simulate: baseline + attack + count; detect.EvaluateScratch on
	// the impacts it returns.
	var impacts []*core.Impact
	d, err = l.each("core.Simulate", root, len(attackers), func(i int) error {
		im, err := core.Simulate(g, core.Scenario{Victim: victim.Origin, Attacker: attackers[i].AS, Prepend: victim.Prepend})
		if err == nil && len(impacts) < len(attackers) {
			impacts = append(impacts, im)
		}
		return err
	})
	if err != nil {
		return err
	}
	res.set("core.simulate4k_us", us(d), "us")
	monitors := g.TopByDegree(30)
	evalScratch := detect.NewEvalScratch()
	d, err = l.each("detect.EvaluateScratch", root, len(impacts), func(i int) error {
		detect.EvaluateScratch(impacts[i], monitors, g, evalScratch)
		return nil
	})
	if err != nil {
		return err
	}
	res.set("detect.evaluate_us", us(d), "us")
	impacts = nil

	// The drivers asppbench calls, with asppbench's configurations.
	detCfg := experiment.DefaultDetectionConfig()
	detCfg.Seed = l.seed
	detCfg.LatencyMonitors = max(10, g.NumASes()*3/400)
	if d, err = l.span("experiment.RunDetectionCtx", root, func() error {
		_, err := experiment.RunDetectionCtx(ctx, g, detCfg)
		return err
	}); err != nil {
		return err
	}
	res.set("experiment.detection4k_ms", ms(d), "ms")

	cmpCfg := experiment.DefaultCompareConfig()
	cmpCfg.Seed = l.seed
	if d, err = l.span("experiment.CompareAttackTypesCtx", root, func() error {
		_, err := experiment.CompareAttackTypesCtx(ctx, g, cmpCfg)
		return err
	}); err != nil {
		return err
	}
	res.set("experiment.compare4k_ms", ms(d), "ms")

	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	if err != nil {
		return err
	}
	surveyCfg := measure.DefaultSurveyConfig()
	surveyCfg.Seed = l.seed
	if d, err = l.span("measure.RunSurvey", root, func() error {
		_, err := measure.RunSurvey(g, origins, surveyCfg)
		return err
	}); err != nil {
		return err
	}
	res.set("measure.survey4k_ms", ms(d), "ms")

	var defended bgp.ASN
	for _, asn := range g.ASNs() {
		if g.IsStub(asn) && len(g.Providers(asn)) >= 2 {
			defended = asn
			break
		}
	}
	defCfg := defense.DefaultConfig(defended)
	defCfg.Seed = l.seed
	if d, err = l.span("defense.Compare", root, func() error {
		_, err := defense.Compare(g, defCfg)
		return err
	}); err != nil {
		return err
	}
	res.set("defense.compare4k_ms", ms(d), "ms")

	t1a, err := experiment.PickTier1ByDegree(g, 0)
	if err != nil {
		return err
	}
	t1b, err := experiment.PickTier1ByDegree(g, 1)
	if err != nil {
		return err
	}
	fracs := []float64{0, 0.05, 0.1, 0.25, 0.5, 0.75, 1}
	var cautious time.Duration
	for _, policy := range []defense.DeployPolicy{defense.DeployRandom, defense.DeployTopDegree} {
		if d, err = l.span("defense.CautiousAdoptionSweep", root, func() error {
			_, err := defense.CautiousAdoptionSweep(g, core.Scenario{Victim: t1a, Attacker: t1b, Prepend: 4}, fracs, policy, l.seed)
			return err
		}); err != nil {
			return err
		}
		cautious += d
	}
	res.set("defense.cautious4k_ms", ms(cautious), "ms")

	infer := l.tr.start("relinfer.infer", root)
	err = func() error {
		mons := measure.DefaultMonitors(g, 30, 15, 1)
		var paths []bgp.Path
		if _, err := l.span("relinfer.CollectPaths", infer, func() (err error) {
			paths, err = relinfer.CollectPaths(g, relinfer.SampleOrigins(g, 200), mons, 0)
			return err
		}); err != nil {
			return err
		}
		var plain, seeded *relinfer.Inferred
		if _, err := l.span("relinfer.Gao", infer, func() (err error) {
			plain, err = relinfer.Gao(paths, relinfer.GaoConfig{})
			return err
		}); err != nil {
			return err
		}
		if _, err := l.span("relinfer.Tier1Seeded", infer, func() (err error) {
			seeded, err = relinfer.Tier1Seeded(paths, g.Tier1s())
			return err
		}); err != nil {
			return err
		}
		_, err := l.span("relinfer.Consensus", infer, func() error {
			_, err := relinfer.Consensus(paths, plain, seeded)
			return err
		})
		return err
	}()
	d = l.tr.end(infer)
	if err != nil {
		return err
	}
	res.set("relinfer.infer4k_ms", ms(d), "ms")

	// Each experiment alone, as a process: the figure a layer win was
	// meant to help.
	var tsv int
	for _, exp := range figs4kExps {
		var r procRun
		d, err := l.span("asppbench -exp "+exp, root, func() error {
			r = runProc(ctx, l.h.asppbench, "-exp", exp, "-n", fmt.Sprint(sc.figsN), "-seed", fmt.Sprint(l.seed))
			return r.err
		})
		res.Attempted++
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			res.fail("%v", err)
		}
		tsv += len(r.out)
		res.set("asppbench."+exp+"_ms", ms(d), "ms")
	}
	res.set("asppbench.tsv_bytes", float64(tsv), "B")
	return nil
}

// sweep drives the layers behind the Internet-scale sweep: the same
// driver calls, with the same configurations, that asppbench makes for
// fig7..fig12 and susceptibility on a -topo graph.
func (l *layers) sweep(ctx context.Context) error {
	res := l.res
	root := l.tr.start("sweep80k", -1)
	defer l.tr.end(root)

	var path string
	d, err := l.span("topology.Generate+WriteSerial2", root, func() (err error) {
		path, _, err = l.h.writeSweepTopology()
		return err
	})
	if err != nil {
		return err
	}
	res.set("topology.generate80k_ms", ms(d), "ms")

	// The whole run, in-process.
	run := l.tr.start("sweep80k.run", root)
	var g *topology.Graph
	load, err := l.span("topology.ReadSerial2", run, func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err = topology.ReadSerial2(f)
		return err
	})
	if err != nil {
		return err
	}
	res.set("topology.load80k_ms", ms(load), "ms")
	covered := load

	counters := new(obs.Counters)
	pairs := func(kind experiment.PairKind, n int, violate bool) experiment.PairConfig {
		return experiment.PairConfig{Kind: kind, N: n, Prepend: 3, Violate: violate, Seed: l.seed, Counters: counters}
	}
	sweepCall := func(parent int, victim, attacker bgp.ASN, violate bool) error {
		_, err := l.span("experiment.SweepPrependCfgCtx", parent, func() error {
			_, err := experiment.SweepPrependCfgCtx(ctx, g, experiment.SweepConfig{
				Victim: victim, Attacker: attacker, MaxLambda: 8, Violate: violate, Counters: counters})
			return err
		})
		return err
	}
	t1 := make([]bgp.ASN, 3)
	for rank := range t1 {
		if t1[rank], err = experiment.PickTier1ByDegree(g, rank); err != nil {
			return err
		}
	}
	content, err := experiment.PickContentStub(g)
	if err != nil {
		return err
	}
	var sib *experiment.SiblingScenario
	var sibling time.Duration
	figs := []struct {
		name string
		run  func(id int) error
	}{
		{"fig7", func(id int) error {
			_, err := l.span("experiment.SamplePairsCtx", id, func() error {
				_, err := experiment.SamplePairsCtx(ctx, g, pairs(experiment.PairsTier1, 80, false))
				return err
			})
			return err
		}},
		{"fig8", func(id int) error {
			_, err := l.span("experiment.SamplePairsCtx", id, func() error {
				_, err := experiment.SamplePairsCtx(ctx, g, pairs(experiment.PairsRandom, 27, true))
				return err
			})
			return err
		}},
		{"fig9", func(id int) error { return sweepCall(id, t1[0], t1[1], false) }},
		{"fig10", func(id int) error { return sweepCall(id, content, t1[0], false) }},
		{"fig11", func(id int) error {
			if err := sweepCall(id, t1[2], content, false); err != nil {
				return err
			}
			if err := sweepCall(id, t1[2], content, true); err != nil {
				return err
			}
			if _, err := l.span("experiment.BuildSiblingScenario", id, func() (err error) {
				sib, err = experiment.BuildSiblingScenario(g, t1[2], content, 65530)
				return err
			}); err != nil {
				return err
			}
			var err error
			sibling, err = l.span("experiment.SiblingScenario.Sweep", id, func() error {
				_, err := sib.Sweep(siblingLambdas)
				return err
			})
			return err
		}},
		{"fig12", func(id int) error {
			attacker, err := experiment.PickStub(g, l.seed)
			if err != nil {
				return err
			}
			victim, err := experiment.PickStub(g, stats.DeriveSeed(l.seed, "fig12.victim"))
			if err != nil {
				return err
			}
			if victim == attacker {
				if victim, err = experiment.PickStub(g, stats.DeriveSeed(l.seed, "fig12.victim.retry")); err != nil {
					return err
				}
			}
			if err := sweepCall(id, victim, attacker, false); err != nil {
				return err
			}
			return sweepCall(id, victim, attacker, true)
		}},
		{"susceptibility", func(id int) error {
			cfg := experiment.DefaultSusceptibilityConfig()
			cfg.Seed, cfg.Counters = l.seed, counters
			_, err := l.span("experiment.SusceptibilityMatrixCtx", id, func() error {
				_, err := experiment.SusceptibilityMatrixCtx(ctx, g, cfg)
				return err
			})
			return err
		}},
	}
	for _, fig := range figs {
		id := l.tr.start("experiment."+fig.name, run)
		err := fig.run(id)
		d := l.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", fig.name, err)
		}
		name := "experiment." + fig.name + "_80k_ms"
		if fig.name == "susceptibility" {
			name = "experiment.susceptibility80k_ms"
		}
		res.set(name, ms(d), "ms")
		covered += d
	}
	whole := l.tr.end(run)
	res.set("experiment.fig11_sibling80k_ms", ms(sibling), "ms")
	res.set("sweep80k.inproc_run_ms", ms(whole), "ms")
	res.set("sweep80k.covered_share", float64(covered)/float64(whole), "ratio")
	// The sibling graph sends core.Simulate to the reference engine: a
	// baseline and an attack propagation per λ. Time that engine alone, so
	// the sibling sweep's span can be read as calls × cost.
	ref, err := l.each("routing.PropagateReference", root, 2, func(i int) error {
		_, err := routing.PropagateReference(sib.Graph, routing.Announcement{Origin: sib.Victim, Prepend: 1 + 4*i}, nil)
		return err
	})
	if err != nil {
		return err
	}
	res.set("routing.reference80k_ms", ms(ref), "ms")
	res.set("routing.reference80k_calls", 2*siblingLambdas, "count")
	res.note("sweep80k: fig11's sibling sweep took %.0f ms; %d reference propagations × %.1f ms = %.0f ms of it",
		ms(sibling), 2*siblingLambdas, ms(ref), 2*siblingLambdas*ms(ref))
	snap := counters.Snapshot()
	res.set("experiment.prop_base", float64(snap.BasePropagations+snap.BatchPropagations), "count")
	res.set("experiment.prop_attack", float64(snap.AttackPropagations()), "count")
	res.set("experiment.cache_hit_ratio", float64(snap.BaselineHits)/float64(max(1, snap.BaselineHits+snap.BaselineMisses)), "ratio")
	res.set("topology.csr80k_mb", float64(g.MemoryBytes())/1e6, "MB")

	// Kernels at this scale.
	victim, attackers, err := l.routingMicro(g, root, "80k")
	if err != nil {
		return err
	}
	base, err := routing.Propagate(g, victim)
	if err != nil {
		return err
	}
	s := routing.NewScratch()
	if d, err = l.each("routing.PropagateAttackScratch", root, len(attackers), func(i int) error {
		_, err := routing.PropagateAttackScratch(g, victim, attackers[i], base, s)
		return err
	}); err != nil {
		return err
	}
	res.set("routing.full_attack80k_us", us(d), "us")

	k := routing.AdaptiveLaneWidth(g.NumASes())
	anns := sampleAnns(g)
	bs := routing.NewBatchScratch()
	if _, err := routing.PropagateBatch(g, anns[:k], bs); err != nil {
		return err
	}
	if d, err = l.each("routing.PropagateBatch", root, microSample/k, func(i int) error {
		_, err := routing.PropagateBatch(g, anns[i*k:(i+1)*k], bs)
		return err
	}); err != nil {
		return err
	}
	res.set("routing.batch80k_us_per_lane", us(d)/float64(k), "us")
	if d, err = l.each("routing.PropagateAttackDeltaBatch", root, len(attackers)/k, func(i int) error {
		lanes := make([]routing.AttackLane, k)
		for j := range lanes {
			lanes[j] = routing.AttackLane{Ann: victim, Atk: attackers[i*k+j], Baseline: base}
		}
		_, err := routing.PropagateAttackDeltaBatch(g, lanes, bs)
		return err
	}); err != nil {
		return err
	}
	res.set("routing.delta_batch80k_us_per_lane", us(d)/float64(k), "us")

	if d, err = l.each("core.Simulate", root, min(8, len(attackers)), func(i int) error {
		_, err := core.Simulate(g, core.Scenario{Victim: victim.Origin, Attacker: attackers[i].AS, Prepend: victim.Prepend})
		return err
	}); err != nil {
		return err
	}
	res.set("core.simulate80k_ms", ms(d), "ms")

	// The ablation: the same driver calls with every tuning knob on.
	procs := runtime.GOMAXPROCS(0)
	tuned := pairs(experiment.PairsTier1, 80, false)
	budgeted := new(obs.Counters) // only budgeted shard caches record their peak
	tuned.Counters, tuned.Batch, tuned.Shards, tuned.MemBudget = budgeted, k, procs, 256<<20
	if d, err = l.span("experiment.SamplePairsCtx tuned", root, func() error {
		_, err := experiment.SamplePairsCtx(ctx, g, tuned)
		return err
	}); err != nil {
		return err
	}
	res.set("experiment.pairs80k_tuned_ms", ms(d), "ms")
	res.set("experiment.cache_peak_mb", float64(budgeted.Snapshot().CacheBytes)/1e6, "MB")
	susc := experiment.DefaultSusceptibilityConfig()
	susc.Seed, susc.Batch, susc.Shards, susc.MemBudget = l.seed, k, procs, 256<<20
	if d, err = l.span("experiment.SusceptibilityMatrixCtx tuned", root, func() error {
		_, err := experiment.SusceptibilityMatrixCtx(ctx, g, susc)
		return err
	}); err != nil {
		return err
	}
	res.set("experiment.susceptibility80k_tuned_ms", ms(d), "ms")

	// Worker scaling of the fig7 driver: meaningless on one processor.
	res.set("parallel.pairs_scaling", 0, "ratio")
	if procs > 1 {
		var walls [2]time.Duration
		for i, workers := range []int{1, procs} {
			cfg := pairs(experiment.PairsTier1, 80, false)
			cfg.Counters, cfg.Workers = nil, workers
			if walls[i], err = l.span(fmt.Sprintf("experiment.SamplePairsCtx workers=%d", workers), root, func() error {
				_, err := experiment.SamplePairsCtx(ctx, g, cfg)
				return err
			}); err != nil {
				return err
			}
		}
		res.set("parallel.pairs_scaling", float64(walls[0])/float64(walls[1]), "ratio")
	} else {
		res.note("parallel.pairs_scaling: unmeasured (GOMAXPROCS=1), reported as 0")
	}

	var r procRun
	if d, err = l.span("asppbench -exp table1 -topo", root, func() error {
		r = runProc(ctx, l.h.asppbench, "-exp", "table1", "-topo", path, "-seed", fmt.Sprint(l.seed))
		return r.err
	}); err != nil {
		return err
	}
	res.set("asppbench.startup80k_ms", ms(d), "ms")
	return nil
}

// serveChurn drives the layers under the serve-churn workload, then the
// workload itself with spans around its phases.
func (l *layers) serveChurn(ctx context.Context) error {
	res, h := l.res, l.h
	root := l.tr.start("serve-churn", -1)
	defer l.tr.end(root)

	var g *topology.Graph
	var monitors []bgp.ASN
	var updates []bgp.Update
	build := l.tr.start("corpus", root)
	g, monitors, updates, err := churnUpdates(l.tr, build, h.scale, l.seed, h.scale.churnMonitors)
	l.tr.end(build)
	if err != nil {
		return err
	}
	for _, sp := range l.tr.spans {
		if sp.Parent == build && sp.Name == "collector.ChurnStream" {
			res.set("collector.churn_stream_ms", ms(sp.dur()), "ms")
		}
	}
	res.set("collector.corpus_updates", float64(len(updates)), "count")

	// The codec: encode the corpus, decode it back.
	var frames []byte
	d, err := l.span("bgp.AppendUpdateBinary", root, func() (err error) {
		for rep := 0; rep < 20; rep++ {
			frames = frames[:0]
			for _, u := range updates {
				if frames, err = bgp.AppendUpdateBinary(frames, u); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("bgp.encode_ns", float64(d)/float64(20*len(updates)), "ns")
	res.set("bgp.frame_bytes", float64(len(frames))/float64(len(updates)), "B")
	d, err = l.span("bgp.StreamDecoder.Next", root, func() error {
		var u bgp.Update
		for rep := 0; rep < 20; rep++ {
			dec := bgp.NewStreamDecoder(bytes.NewReader(frames))
			for {
				if err := dec.Next(&u); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("bgp.decode_ns", float64(d)/float64(20*len(updates)), "ns")

	// The detection core alone: serve-sized batches over the warmed table.
	det := detect.NewDetector(monitors, g)
	alarms := det.ObserveBatch(updates, make([]detect.Alarm, 0, 1024))
	const cycles = 50
	var raised int
	var allocs float64
	d, err = l.span("detect.Detector.ObserveBatch", root, func() error {
		allocs = mallocs(func() {
			for c := 0; c < cycles; c++ {
				for i := 0; i < len(updates); i += 256 {
					alarms = det.ObserveBatch(updates[i:min(i+256, len(updates))], alarms[:0])
					raised += len(alarms)
				}
			}
		})
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(cycles * len(updates))
	res.set("detect.observe_churn_ns", float64(d)/n, "ns")
	res.set("detect.alarms_per_update", float64(raised)/n, "ratio")
	res.set("detect.allocs_per_update", allocs/n, "count")

	// The pipeline without a socket, at one shard and at one per processor.
	procs := runtime.GOMAXPROCS(0)
	inproc := func(shards int) (float64, error) {
		p, err := serve.NewPipeline(serve.Config{Shards: shards, Monitors: monitors, Rels: g})
		if err != nil {
			return 0, err
		}
		p.Start()
		defer p.Close()
		if _, err := p.RunLoad(updates, int64(2*len(updates))); err != nil {
			return 0, err
		}
		var rep serve.LoadReport
		_, err = l.span(fmt.Sprintf("serve.Pipeline.RunLoad shards=%d", shards), root, func() (err error) {
			rep, err = p.RunLoad(updates, h.scale.churnPassUpdates/2)
			return err
		})
		res.Attempted += rep.Offered
		res.Failed += rep.Offered - rep.Processed
		return rep.UpdatesPerSec, err
	}
	one, err := inproc(1)
	if err != nil {
		return err
	}
	res.set("serve.inproc_updates_per_s", one, "1/s")
	res.set("serve.shard_scaling", 0, "ratio")
	if procs > 1 {
		many, err := inproc(procs)
		if err != nil {
			return err
		}
		res.set("serve.shard_scaling", many/one, "ratio")
	} else {
		res.note("serve.shard_scaling: unmeasured (GOMAXPROCS=1), reported as 0")
	}

	run, err := l.socketRun(ctx, "serve-churn", root)
	if err != nil {
		return err
	}
	for _, m := range []struct{ layer, name, unit string }{
		{"serve.churn_updates_per_s", "updates_per_s", "1/s"},
		{"serve.churn_state_mb", "state_mb", "MB"},
		{"serve.churn_alarm_latency_p50_ms", "result_latency_ms", "ms"},
		{"serve.alarm_latency_p99_ms", "alarm_latency_p99_ms", "ms"},
		{"serve.alarm_latency_p999_ms", "alarm_latency_p999_ms", "ms"},
		{"serve.internal_p50_us", "internal_p50_us", "us"},
		{"serve.internal_p99_us", "internal_p99_us", "us"},
		{"serve.gen_late_p99_ms", "gen_late_p99_ms", "ms"},
		{"serve.queue_peak", "queue_peak", "count"},
		{"serve.mean_batch", "mean_batch", "count"},
	} {
		v, _ := run.get(m.name)
		res.set(m.layer, v, m.unit)
	}
	return nil
}

// serveGrowth drives the insert path of the detector alone, then the
// serve-growth workload with spans around its phases.
func (l *layers) serveGrowth(ctx context.Context) error {
	res, h := l.res, l.h
	root := l.tr.start("serve-growth", -1)
	defer l.tr.end(root)

	c, err := serveSpecs["serve-growth"].build(h, root, l.seed)
	if err != nil {
		return err
	}
	// Decode the template frames back into updates and stamp fresh
	// prefixes on them: every ObserveBatch call inserts.
	src := c.src.(*growthSource)
	var tmpl [growthInserts]bgp.Update
	for i, frame := range src.inserts {
		if err := bgp.NewStreamDecoder(bytes.NewReader(frame)).Next(&tmpl[i]); err != nil {
			return err
		}
		tmpl[i].Path = append(bgp.Path(nil), tmpl[i].Path...)
	}
	prefixes := int(min(h.scale.growthPassPrefixes/4, 250_000))
	batch := make([]bgp.Update, 0, 256)
	det := detect.NewDetector(c.monitors, c.g)
	var alarms []detect.Alarm
	d, err := l.span("detect.Detector.ObserveBatch inserts", root, func() error {
		for q := 0; q < prefixes; q++ {
			a := uint32(growthBase + q)
			pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}), 32)
			for _, u := range tmpl {
				u.Prefix = pfx
				batch = append(batch, u)
			}
			if len(batch) == cap(batch) {
				alarms = det.ObserveBatch(batch, alarms[:0])
				batch = batch[:0]
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("detect.observe_insert_ns", float64(d)/float64(prefixes*growthInserts), "ns")
	res.set("detect.bytes_per_prefix", float64(det.MemoryBytes())/float64(prefixes), "B")
	det = nil
	runtime.GC()

	run, err := l.socketRun(ctx, "serve-growth", root)
	if err != nil {
		return err
	}
	for _, m := range []struct{ layer, name, unit string }{
		{"serve.growth_updates_per_s", "updates_per_s", "1/s"},
		{"serve.growth_state_mb", "state_mb", "MB"},
		{"serve.growth_alarm_latency_p50_ms", "result_latency_ms", "ms"},
		{"serve.growth_alarm_latency_p99_ms", "alarm_latency_p99_ms", "ms"},
	} {
		v, _ := run.get(m.name)
		res.set(m.layer, v, m.unit)
	}
	return nil
}

// socketRun runs a serve workload as the untraced pass does, at a third of
// its length and with one set-up, under the traced pass's spans, and folds
// its failure accounting into the pass's.
func (l *layers) socketRun(ctx context.Context, name string, parent int) (*result, error) {
	h := *l.h
	h.seconds = l.h.seconds / 3
	h.scale.setupReps, h.scale.setupFor = 1, 0
	run, err := h.runServe(ctx, serveSpecs[name], l.seed, parent)
	l.h.sockets = h.sockets
	if err != nil {
		return nil, err
	}
	l.res.Attempted += run.Attempted
	l.res.Failed += run.Failed
	l.res.dropped += run.dropped
	l.res.framesBad += run.framesBad
	l.res.alarmsLost += run.alarmsLost
	l.res.notes = append(l.res.notes, run.notes...)
	return run, nil
}
