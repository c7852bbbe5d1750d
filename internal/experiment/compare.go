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

	// Every family is scored the same way: captured share, then the three
	// detector classes over the monitors' under-attack routes. The
	// prepend-consistency evaluation reuses one arena-backed scratch across
	// instances (the loop is serial); its trigger is a prepend-count
	// decrease, which a forged [M V] also causes at polluted monitors (the
	// forged path carries one origin copy).
	evalScratch := detect.NewEvalScratch()
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
			if detect.EvaluateScratch(im, monitors, g, evalScratch).Detected {
				cmp.DetectedByASPP++
			}
		}
		finishComparison(&cmp)
		return cmp
	}
	out := []AttackComparison{score(core.AttackASPP, impacts)}

	// The two forged-announcement families on the same pairs, against the
	// honest baseline each ASPP instance already holds. The pairs already
	// proved usable for ASPP, so there is nothing left to redraw: any
	// failure here is a propagation bug and aborts the comparison.
	for _, typ := range []core.AttackType{core.AttackOriginHijack, core.AttackNextHopInterception} {
		forged, cerr := parallel.MapErr(ctx, len(impacts), cfg.Workers, func(i int) (*core.Impact, error) {
			sc := core.Scenario{
				Victim: impacts[i].Scenario.Victim, Attacker: impacts[i].Scenario.Attacker,
				Prepend: cfg.Prepend, Type: typ,
			}
			im, err := core.SimulateWithBaseline(g, sc, impacts[i].Baseline(), cfg.Counters)
			if err != nil {
				return nil, fmt.Errorf("%v pair %v/%v: %w", typ, sc.Victim, sc.Attacker, err)
			}
			return im, nil
		})
		if cerr != nil {
			return nil, sweepError("comparison sweep", cerr)
		}
		out = append(out, score(typ, forged))
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

// ComparisonPrefix is the synthetic prefix label used when rendering
// comparison update streams.
var ComparisonPrefix = netip.MustParsePrefix("10.0.0.0/16")
