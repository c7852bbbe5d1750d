package aspp

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/core"
	"aspp/internal/defense"
	"aspp/internal/experiment"
	"aspp/internal/measure"
	"aspp/internal/obs"
	"aspp/internal/relinfer"
	"aspp/internal/topology"
	"aspp/internal/trace"
)

// testGraph is the default generator's n-AS graph at seed.
func testGraph(t testing.TB, n int, seed int64) *topology.Graph {
	t.Helper()
	cfg := topology.DefaultGenConfig(n)
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g
}

func TestInternetSimulateAttack(t *testing.T) {
	g := testGraph(t, 400, 5)
	t1 := g.Tier1s()
	im, err := core.Simulate(g, core.Scenario{Victim: t1[0], Attacker: t1[1], Prepend: 3})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if im.After() < im.Before() {
		t.Errorf("attack reduced pollution: %.3f -> %.3f", im.Before(), im.After())
	}
	// The sweep API agrees with single simulations.
	sweep, err := experiment.SweepPrependCfgCtx(context.Background(), g, experiment.SweepConfig{Victim: t1[0], Attacker: t1[1], MaxLambda: 3})
	if err != nil {
		t.Fatalf("SweepPrepend: %v", err)
	}
	if got := sweep[2].After; got != im.After() {
		t.Errorf("sweep λ=3 After = %v, single-run = %v", got, im.After())
	}
}

func TestInternetAttackerUnreachable(t *testing.T) {
	// Two disjoint islands: the attacker never hears the route.
	g, err := topology.ReadSerial2(strings.NewReader("10|100|-1\n20|200|-1\n"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Simulate(g, core.Scenario{Victim: 100, Attacker: 200, Prepend: 3})
	if !errors.Is(err, core.ErrAttackerSeesNoRoute) {
		t.Errorf("err = %v, want ErrAttackerSeesNoRoute", err)
	}
}

// TestInternetUsageSurveyDefaults: the standard survey over the calibrated
// prepending mix, as asppbench's fig5/fig6 run it.
func TestInternetUsageSurveyDefaults(t *testing.T) {
	g := testGraph(t, 400, 6)
	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := measure.RunSurvey(g, origins, measure.DefaultSurveyConfig())
	if err != nil {
		t.Fatalf("RunSurvey: %v", err)
	}
	if len(res.TableFracs) == 0 || res.Prefixes == 0 {
		t.Error("empty survey result")
	}
	cdf, err := res.TableCDF()
	if err != nil {
		t.Fatal(err)
	}
	if cdf.Mean() <= 0 {
		t.Error("no prepending observed at all")
	}

	// A config with only Monitors set: its table leg must still propagate
	// once per origin — it used to fall back to once per prefix — and,
	// given the default monitor set, reproduce the default run's tables.
	c := new(obs.Counters)
	custom, err := measure.RunSurvey(g, origins, measure.SurveyConfig{
		Monitors: measure.DefaultMonitors(g, 30, 10, 1), Counters: c,
	})
	if err != nil {
		t.Fatalf("RunSurvey(custom monitors): %v", err)
	}
	if s := c.Snapshot(); s.BasePropagations != int64(res.Origins) || s.AttackPropagations() != 0 {
		t.Errorf("custom monitors: prop_base=%d attack legs=%d, want one table propagation per origin (%d) and nothing else",
			s.BasePropagations, s.AttackPropagations(), res.Origins)
	}
	if !reflect.DeepEqual(custom.TableFracs, res.TableFracs) || !reflect.DeepEqual(custom.Tier1TableFracs, res.Tier1TableFracs) ||
		!reflect.DeepEqual(custom.TablePrependDist, res.TablePrependDist) || custom.Prefixes != res.Prefixes {
		t.Error("custom-monitor tables differ from the default-config run")
	}
}

func TestInternetRunDetection(t *testing.T) {
	g := testGraph(t, 400, 7)
	cfg := experiment.DefaultDetectionConfig()
	cfg.MonitorCounts = []int{20, 200}
	cfg.Pairs = 25
	out, err := experiment.RunDetectionCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("RunDetection: %v", err)
	}
	if acc := out.Accuracy[0]; len(acc) != 2 || acc[1].Detected < acc[0].Detected-0.05 {
		t.Errorf("accuracy series wrong: %+v", acc)
	}
}

func TestInternetInferRelationships(t *testing.T) {
	inf, acc, err := relinfer.InferRelationships(testGraph(t, 300, 8), 80, 20, nil)
	if err != nil {
		t.Fatalf("InferRelationships: %v", err)
	}
	if len(inf.Links()) == 0 {
		t.Fatal("no links inferred")
	}
	if acc.Overall() < 0.6 {
		t.Errorf("consensus accuracy = %.2f, want >= 0.6", acc.Overall())
	}
}

func TestFacebookCaseStudyFacade(t *testing.T) {
	cs, err := experiment.FacebookCaseStudy(100, 2)
	if err != nil {
		t.Fatalf("FacebookCaseStudy: %v", err)
	}
	normal, hijacked := cs.Traceroutes(1)
	out := trace.Render(hijacked)
	if !strings.Contains(out, "AS4134") {
		t.Errorf("traceroute missing the China detour:\n%s", out)
	}
	if len(normal) == 0 {
		t.Error("empty normal traceroute")
	}
}

func TestInternetCompareDefenses(t *testing.T) {
	g := testGraph(t, 500, 9)
	var victim bgp.ASN
	for _, asn := range g.ASNs() {
		if g.IsStub(asn) && len(g.Providers(asn)) >= 2 {
			victim = asn
			break
		}
	}
	cfg := defense.DefaultConfig(victim)
	cfg.Budget = 5
	cfg.TrainingAttacks = 15
	cfg.EvalAttacks = 20
	outcomes, err := defense.Compare(g, cfg)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(outcomes) != 4 {
		t.Fatalf("got %d strategies", len(outcomes))
	}
}

func TestInternetMitigate(t *testing.T) {
	g := testGraph(t, 500, 9)
	t1 := g.Tier1s()
	out, err := defense.Mitigate(g, core.Scenario{Victim: t1[0], Attacker: t1[1], Prepend: 4}, defense.MitigateUnprepend)
	if err != nil {
		t.Fatalf("Mitigate: %v", err)
	}
	if out.AfterResponse > out.DuringAttack {
		t.Errorf("unprepend worsened pollution: %v -> %v", out.DuringAttack, out.AfterResponse)
	}
}

func TestInternetSiblingScenario(t *testing.T) {
	g := testGraph(t, 400, 10)
	t1 := g.Tier1s()
	var stub bgp.ASN
	for _, asn := range g.ASNs() {
		if g.IsStub(asn) && len(g.Providers(asn)) >= 2 {
			stub = asn
			break
		}
	}
	sc, err := experiment.BuildSiblingScenario(g, t1[0], stub, 65530)
	if err != nil {
		t.Fatalf("BuildSiblingScenario: %v", err)
	}
	points, err := sc.Sweep(4)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
}
