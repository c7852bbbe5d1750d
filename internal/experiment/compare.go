package experiment

import (
	"context"
	"errors"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/detect"
	"aspp/internal/obs"
	"aspp/internal/topology"
)

// AttackComparison quantifies the paper's §II.B qualitative contrast: for
// the same attacker/victim pairs, how much traffic does each hijack
// family capture, and which detector class catches it?
type AttackComparison struct {
	Type core.AttackType
	// MeanPollution is the mean captured fraction across pairs.
	MeanPollution float64
	// DetectedByMOAS / DetectedByFakeLink / DetectedByASPP are the
	// fractions of instances each detector class flags.
	DetectedByMOAS, DetectedByFakeLink, DetectedByASPP float64
	// Instances is the number of evaluated pairs.
	Instances int
}

// CompareConfig parameterizes CompareAttackTypes.
type CompareConfig struct {
	Pairs    int
	Prepend  int
	Monitors int // top-degree monitor count for the detectors
	Seed     int64
	// Counters optionally collects sweep telemetry; nil disables recording.
	Counters *obs.Counters
}

// DefaultCompareConfig returns a calibrated comparison setup.
func DefaultCompareConfig() CompareConfig {
	return CompareConfig{Pairs: 30, Prepend: 3, Monitors: 100, Seed: 1}
}

// CompareAttackTypesCtx runs all three attack families over shared random
// pairs and evaluates all three detector classes on each, quantifying the
// paper's claim that ASPP interception evades MOAS and fake-link
// detection while remaining catchable by prepend-consistency checking.
// Every instance is scored inside its leg (legVisitor); returns
// (nil, ctx.Err()) when cancelled.
func CompareAttackTypesCtx(ctx context.Context, g *topology.Graph, cfg CompareConfig) ([]AttackComparison, error) {
	if cfg.Pairs <= 0 || cfg.Prepend < 2 || cfg.Monitors <= 0 {
		return nil, errors.New("experiment: bad comparison config")
	}
	monitors := g.TopByDegree(cfg.Monitors)
	r := newLegRunner(g, legOptions{what: "comparison sweep", counters: cfg.Counters})

	// Every family is scored the same way: captured share, then the three
	// detector classes over the monitors' under-attack routes. The
	// prepend-consistency trigger is a prepend-count decrease, which a
	// forged [M V] also causes at polluted monitors (the forged path
	// carries one origin copy).
	type instance struct {
		victim, attacker     bgp.ASN
		pollution            float64
		moas, fakeLink, aspp bool
	}
	scratch := make([]*detect.EvalScratch, len(r.shards))
	for si := range scratch {
		scratch[si] = detect.NewEvalScratch()
	}
	score := func(shard int, im *core.Impact) instance {
		routes := monitorRoutesFromImpact(im, monitors)
		_, moas := detect.DetectMOAS(routes)
		// The verdict without the latency: no figure of this table reads it.
		var aspp [1]detect.EvalResult
		var hops [1]int
		scratch[shard].Extract(im, monitors)
		scratch[shard].Fold(0, []int{len(monitors)}, g, aspp[:], hops[:])
		cfg.Counters.Add(obs.DetectPairs, int64(scratch[shard].Pairs()))
		return instance{
			victim: im.Scenario.Victim, attacker: im.Scenario.Attacker,
			pollution: im.After(),
			moas:      moas,
			fakeLink:  len(detect.DetectFakeLinks(g, routes)) > 0,
			aspp:      aspp[0].Detected,
		}
	}
	// Instances are summed in draw order, so the means do not depend on
	// which shard scored what.
	summarize := func(typ core.AttackType, ins []instance) AttackComparison {
		cmp := AttackComparison{Type: typ, Instances: len(ins)}
		for _, in := range ins {
			cmp.MeanPollution += in.pollution
			if in.moas {
				cmp.DetectedByMOAS++
			}
			if in.fakeLink {
				cmp.DetectedByFakeLink++
			}
			if in.aspp {
				cmp.DetectedByASPP++
			}
		}
		if n := float64(len(ins)); n > 0 {
			cmp.MeanPollution /= n
			cmp.DetectedByMOAS /= n
			cmp.DetectedByFakeLink /= n
			cmp.DetectedByASPP /= n
		}
		return cmp
	}

	// Shared pairs: each must make the ASPP attack effective so all three
	// families face the same instances.
	stream := randomAttackStream(g, cfg.Seed, cfg.Pairs*30, cfg.Prepend, true)
	aspp, err := firstEffective(ctx, r, stream, cfg.Pairs, score)
	if err != nil {
		return nil, err
	}
	n := len(aspp)
	out := []AttackComparison{summarize(core.AttackASPP, aspp)}

	// The two forged-announcement families on the same pairs, as one more
	// run on the same shards. A forged claim needs no route, so nothing is
	// skipped: any failure here is a propagation bug and aborts the
	// comparison.
	families := []core.AttackType{core.AttackOriginHijack, core.AttackNextHopInterception}
	legs := make([]core.Scenario, 0, len(families)*n)
	for _, typ := range families {
		for _, in := range aspp {
			legs = append(legs, core.Scenario{Victim: in.victim, Attacker: in.attacker, Prepend: cfg.Prepend, Type: typ})
		}
	}
	forged := make([]instance, len(legs))
	if _, _, err := r.run(ctx, legs, func(shard, i int, im *core.Impact) bool {
		forged[i] = score(shard, im)
		return true
	}); err != nil {
		return nil, err
	}
	for _, s := range scratch {
		cfg.Counters.Max(obs.ArenaBytes, s.MemoryBytes())
	}
	for f, typ := range families {
		out = append(out, summarize(typ, forged[f*n:(f+1)*n]))
	}
	return out, nil
}

// monitorRoutesFromImpact extracts the under-attack monitor routes.
func monitorRoutesFromImpact(im *core.Impact, monitors []bgp.ASN) []detect.MonitorRoute {
	res := im.Attacked()
	out := make([]detect.MonitorRoute, 0, len(monitors))
	for _, m := range monitors {
		if p := res.PathOf(m); p != nil {
			out = append(out, detect.MonitorRoute{Monitor: m, Path: p})
		}
	}
	return out
}
