package aspp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aspp/internal/experiment"
	"aspp/internal/measure"
	"aspp/internal/topology"
)

func testInternet(t testing.TB, n int, seed int64) *Internet {
	t.Helper()
	in, err := NewInternet(WithSize(n), WithSeed(seed))
	if err != nil {
		t.Fatalf("NewInternet: %v", err)
	}
	return in
}

func TestNewInternetOptions(t *testing.T) {
	in := testInternet(t, 300, 3)
	if got := in.Graph().NumASes(); got != 300 {
		t.Errorf("NumASes = %d, want 300", got)
	}
	if len(in.Tier1s()) == 0 {
		t.Error("no tier-1 ASes")
	}
	if got := in.Graph().TopByDegree(5); len(got) != 5 {
		t.Errorf("TopByDegree(5) returned %d", len(got))
	}

	// Same seed, same topology; different seed, different.
	in2 := testInternet(t, 300, 3)
	if in.Graph().NumLinks() != in2.Graph().NumLinks() {
		t.Error("same seed produced different graphs")
	}

	// WithGenConfig round trip.
	cfg := GenConfig{
		N: 100, Tier1: 4, LargeTransitFrac: 0.1, SmallTransitFrac: 0.2,
		MeanProviders: 1.5, Seed: 9,
	}
	in3, err := NewInternet(WithGenConfig(cfg))
	if err != nil {
		t.Fatalf("WithGenConfig: %v", err)
	}
	if in3.Graph().NumASes() != 100 {
		t.Errorf("WithGenConfig size = %d", in3.Graph().NumASes())
	}
}

// TestNewInternetSeedPrecedence: an explicit WithSeed wins over
// WithGenConfig's Seed, whatever its value; without one the config's Seed
// applies, and 0 means 1.
func TestNewInternetSeedPrecedence(t *testing.T) {
	cfg := topology.DefaultGenConfig(150)
	digest := func(seed int64) uint64 {
		c := cfg
		c.Seed = seed
		g, err := topology.Generate(c)
		if err != nil {
			t.Fatal(err)
		}
		return topology.Digest(g)
	}
	for _, tc := range []struct {
		name     string
		cfgSeed  int64
		opts     []Option
		wantSeed int64
	}{
		{"WithSeed(1) over Seed 9", 9, []Option{WithSeed(1)}, 1},
		{"WithSeed(5) over Seed 9", 9, []Option{WithSeed(5)}, 5},
		{"Seed 9 alone", 9, nil, 9},
		{"Seed 0 alone", 0, nil, 1},
	} {
		c := cfg
		c.Seed = tc.cfgSeed
		in, err := NewInternet(append([]Option{WithGenConfig(c)}, tc.opts...)...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := topology.Digest(in.Graph()), digest(tc.wantSeed); got != want {
			t.Errorf("%s: digest %#x, want Generate at seed %d's %#x", tc.name, got, tc.wantSeed, want)
		}
	}
}

func TestInternetSerial2RoundTrip(t *testing.T) {
	in := testInternet(t, 200, 4)
	var sb strings.Builder
	if err := in.WriteTopology(&sb); err != nil {
		t.Fatalf("WriteTopology: %v", err)
	}
	in2, err := LoadInternet(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("LoadInternet: %v", err)
	}
	if in2.Graph().NumLinks() != in.Graph().NumLinks() {
		t.Error("round trip changed the topology")
	}
	if _, err := LoadInternet(strings.NewReader("garbage")); err == nil {
		t.Error("LoadInternet accepted garbage")
	}
}

// TestOpenInternet: the commands' one way to a topology reads the file it
// is given and generates only when given none.
func TestOpenInternet(t *testing.T) {
	in := testInternet(t, 200, 4)
	path := filepath.Join(t.TempDir(), "rels.txt")
	var sb strings.Builder
	if err := in.WriteTopology(&sb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenInternet(path, WithSize(999)) // the file wins over the generator options
	if err != nil || loaded.Graph().NumASes() != 200 || loaded.Graph().NumLinks() != in.Graph().NumLinks() {
		t.Errorf("OpenInternet(file): %v, err %v; want the 200-AS topology written", loaded, err)
	}
	generated, err := OpenInternet("", WithSize(200), WithSeed(4))
	if err != nil || generated.Graph().NumLinks() != in.Graph().NumLinks() {
		t.Errorf("OpenInternet(\"\"): err %v; want what NewInternet generates", err)
	}
	if _, err := OpenInternet(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestParseMonitors: asppserve and asppload read -monitors through this one
// parser.
func TestParseMonitors(t *testing.T) {
	g := testInternet(t, 300, 3).Graph()
	top := g.TopByDegree(300)
	for _, tc := range []struct {
		spec    string
		want    []ASN
		wantErr string
	}{
		{spec: "top1", want: top[:1]},
		{spec: "top40", want: top[:40]},
		{spec: "top9999", want: top}, // every AS there is
		{spec: "7018", want: []ASN{7018}},
		{spec: "AS7018, 3356,65000", want: []ASN{7018, 3356, 65000}},
		{spec: "top0", wantErr: "want topK, K >= 1"},
		{spec: "top-4", wantErr: "want topK, K >= 1"},
		{spec: "top", wantErr: "want topK, K >= 1"},
		{spec: "topmost", wantErr: "want topK, K >= 1"},
		{spec: "", wantErr: `bad -monitors ""`},
		{spec: "7018,,3356", wantErr: "bad -monitors"},
		{spec: "bogus,list", wantErr: "bad -monitors"},
	} {
		got, err := ParseMonitors(tc.spec, g)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseMonitors(%q) = %v, err %v; want an error containing %q", tc.spec, got, err, tc.wantErr)
			}
		} else if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("ParseMonitors(%q) = %v, err %v; want %v", tc.spec, got, err, tc.want)
		}
	}
}

func TestInternetSimulateAttack(t *testing.T) {
	in := testInternet(t, 400, 5)
	t1 := in.Tier1s()
	im, err := in.SimulateAttack(Scenario{Victim: t1[0], Attacker: t1[1], Prepend: 3})
	if err != nil {
		t.Fatalf("SimulateAttack: %v", err)
	}
	if im.After() < im.Before() {
		t.Errorf("attack reduced pollution: %.3f -> %.3f", im.Before(), im.After())
	}
	// The sweep API agrees with single simulations.
	sweep, err := experiment.SweepPrependCfgCtx(context.Background(), in.Graph(), SweepConfig{Victim: t1[0], Attacker: t1[1], MaxLambda: 3})
	if err != nil {
		t.Fatalf("SweepPrepend: %v", err)
	}
	if got := sweep[2].After; got != im.After() {
		t.Errorf("sweep λ=3 After = %v, single-run = %v", got, im.After())
	}
}

func TestInternetAttackerUnreachable(t *testing.T) {
	// Two disjoint islands: the attacker never hears the route.
	var sb strings.Builder
	sb.WriteString("10|100|-1\n20|200|-1\n")
	in, err := LoadInternet(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = in.SimulateAttack(Scenario{Victim: 100, Attacker: 200, Prepend: 3})
	if !errors.Is(err, ErrAttackerSeesNoRoute) {
		t.Errorf("err = %v, want ErrAttackerSeesNoRoute", err)
	}
}

func TestInternetUsageSurveyDefaults(t *testing.T) {
	in := testInternet(t, 400, 6)
	res, err := in.UsageSurvey(PolicyConfig{}, SurveyConfig{})
	if err != nil {
		t.Fatalf("UsageSurvey: %v", err)
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

	// A config with only Monitors set skips the defaults branch. Its table
	// leg must still propagate once per origin — it used to fall back to
	// once per prefix — and, given the default monitor set, reproduce the
	// default run's tables.
	c := new(Counters)
	custom, err := in.UsageSurvey(PolicyConfig{}, SurveyConfig{
		Monitors: measure.DefaultMonitors(in.Graph(), 30, 10, 1), Counters: c,
	})
	if err != nil {
		t.Fatalf("UsageSurvey(custom monitors): %v", err)
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
	in := testInternet(t, 400, 7)
	cfg := DefaultDetectionConfig()
	cfg.MonitorCounts = []int{20, 200}
	cfg.Pairs = 25
	out, err := in.RunDetectionCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunDetection: %v", err)
	}
	if acc := out.Accuracy[0]; len(acc) != 2 || acc[1].Detected < acc[0].Detected-0.05 {
		t.Errorf("accuracy series wrong: %+v", acc)
	}
}

func TestInternetInferRelationships(t *testing.T) {
	in := testInternet(t, 300, 8)
	inf, acc, err := in.InferRelationships(80, 20)
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
	cs, err := FacebookCaseStudy(100, 2)
	if err != nil {
		t.Fatalf("FacebookCaseStudy: %v", err)
	}
	normal, hijacked := cs.Traceroutes(1)
	out := RenderTraceroute(hijacked)
	if !strings.Contains(out, "AS4134") {
		t.Errorf("traceroute missing the China detour:\n%s", out)
	}
	if len(normal) == 0 {
		t.Error("empty normal traceroute")
	}
}

func TestInternetCompareDefenses(t *testing.T) {
	in := testInternet(t, 500, 9)
	g := in.Graph()
	var victim ASN
	for _, asn := range g.ASNs() {
		if g.IsStub(asn) && len(g.Providers(asn)) >= 2 {
			victim = asn
			break
		}
	}
	cfg := DefaultDefenseConfig(victim)
	cfg.Budget = 5
	cfg.TrainingAttacks = 15
	cfg.EvalAttacks = 20
	outcomes, err := in.CompareDefenses(cfg)
	if err != nil {
		t.Fatalf("CompareDefenses: %v", err)
	}
	if len(outcomes) != 4 {
		t.Fatalf("got %d strategies", len(outcomes))
	}
}

func TestInternetMitigate(t *testing.T) {
	in := testInternet(t, 500, 9)
	t1 := in.Tier1s()
	out, err := in.Mitigate(Scenario{Victim: t1[0], Attacker: t1[1], Prepend: 4}, MitigateUnprepend)
	if err != nil {
		t.Fatalf("Mitigate: %v", err)
	}
	if out.AfterResponse > out.DuringAttack {
		t.Errorf("unprepend worsened pollution: %v -> %v", out.DuringAttack, out.AfterResponse)
	}
}

func TestInternetSiblingScenario(t *testing.T) {
	in := testInternet(t, 400, 10)
	g := in.Graph()
	t1 := in.Tier1s()
	var stub ASN
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
