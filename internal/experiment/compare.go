package experiment

import (
	"context"
	"errors"
	"fmt"
	"net/netip"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/detect"
	"aspp/internal/obs"
	"aspp/internal/parallel"
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
	Workers  int
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
// Cancellation is checked in every simulation fan-out; returns
// (nil, ctx.Err()) when cancelled.
func CompareAttackTypesCtx(ctx context.Context, g *topology.Graph, cfg CompareConfig) ([]AttackComparison, error) {
	if cfg.Pairs <= 0 || cfg.Prepend < 2 || cfg.Monitors <= 0 {
		return nil, errors.New("experiment: bad comparison config")
	}
	monitors := g.TopByDegree(cfg.Monitors)

	// Shared pairs: each must make the ASPP attack effective so all three
	// families face the same instances.
	impacts, err := drawEffectiveAttacks(ctx, g, attackDraw{
		what: "comparison sweep", pairs: cfg.Pairs, budget: cfg.Pairs * 30,
		prepend: cfg.Prepend, violate: true, seed: cfg.Seed,
		workers: cfg.Workers, counters: cfg.Counters,
	})
	if err != nil {
		return nil, err
	}

	out := make([]AttackComparison, 0, 3)

	// ASPP interception. The prepend-consistency evaluation reuses one
	// arena-backed scratch across instances (the loop is serial).
	sc := detect.NewEvalScratch()
	asppCmp := AttackComparison{Type: core.AttackASPP, Instances: len(impacts)}
	for _, im := range impacts {
		asppCmp.MeanPollution += im.After()
		routes := monitorRoutesFromImpact(im, monitors)
		if _, moas := detect.DetectMOAS(routes); moas {
			asppCmp.DetectedByMOAS++
		}
		if len(detect.DetectFakeLinks(g, routes)) > 0 {
			asppCmp.DetectedByFakeLink++
		}
		if detect.EvaluateScratch(im, monitors, g, sc).Detected {
			asppCmp.DetectedByASPP++
		}
	}
	finishComparison(&asppCmp)
	out = append(out, asppCmp)

	// The two forged-announcement baselines. The pairs already proved
	// usable for ASPP, so there is nothing left to redraw: any failure
	// here is a propagation bug and aborts the comparison.
	for _, typ := range []core.AttackType{core.AttackOriginHijack, core.AttackNextHopInterception} {
		results, cerr := parallel.MapErr(ctx, len(impacts), cfg.Workers, func(i int) (*core.BaselineImpact, error) {
			sc := impacts[i].Scenario
			bi, err := core.SimulateBaseline(g, typ, sc.Victim, sc.Attacker, cfg.Prepend)
			if err != nil {
				return nil, fmt.Errorf("%v pair %v/%v: %w", typ, sc.Victim, sc.Attacker, err)
			}
			return bi, nil
		})
		if cerr != nil {
			return nil, sweepError("comparison sweep", cerr)
		}
		cmp := AttackComparison{Type: typ}
		for _, bi := range results {
			if bi == nil {
				continue
			}
			cmp.Instances++
			cmp.MeanPollution += bi.After()
			routes := monitorRoutesFromMulti(bi, monitors)
			if _, moas := detect.DetectMOAS(routes); moas {
				cmp.DetectedByMOAS++
			}
			if len(detect.DetectFakeLinks(g, routes)) > 0 {
				cmp.DetectedByFakeLink++
			}
			// The ASPP detector's trigger is a prepend-count decrease,
			// which the forged announcements also cause at polluted
			// monitors (the forged path carries one origin copy).
			if asppDetectsBaseline(bi, monitors, g) {
				cmp.DetectedByASPP++
			}
		}
		finishComparison(&cmp)
		out = append(out, cmp)
	}
	return out, nil
}

func finishComparison(c *AttackComparison) {
	if c.Instances == 0 {
		return
	}
	n := float64(c.Instances)
	c.MeanPollution /= n
	c.DetectedByMOAS /= n
	c.DetectedByFakeLink /= n
	c.DetectedByASPP /= n
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

func monitorRoutesFromMulti(bi *core.BaselineImpact, monitors []bgp.ASN) []detect.MonitorRoute {
	out := make([]detect.MonitorRoute, 0, len(monitors))
	for _, m := range monitors {
		if p := bi.Attacked().PathOf(m); p != nil {
			out = append(out, detect.MonitorRoute{Monitor: m, Path: p})
		}
	}
	return out
}

// asppDetectsBaseline runs the prepend-consistency detector against a
// baseline attack's before/after monitor views.
func asppDetectsBaseline(bi *core.BaselineImpact, monitors []bgp.ASN, rels detect.RelQuerier) bool {
	witnesses := monitorRoutesFromMulti(bi, monitors)
	for _, m := range monitors {
		prev := bi.Honest().PathOf(m)
		cur := bi.Attacked().PathOf(m)
		if prev == nil || cur == nil {
			continue
		}
		if len(detect.DetectChange(m, prev, cur, witnesses, rels)) > 0 {
			return true
		}
	}
	return false
}

// ComparisonPrefix is the synthetic prefix label used when rendering
// comparison update streams.
var ComparisonPrefix = netip.MustParsePrefix("10.0.0.0/16")
