// Package aspp is a simulator, detector and measurement harness for the
// ASPP-based BGP prefix interception attack, reproducing "Studying Impacts
// of Prefix Interception Attack by Exploring BGP AS-PATH Prepending"
// (Zhang & Pourzandi, ICDCS 2012).
//
// The attack: a victim AS pads its announcements with λ copies of its own
// ASN (AS-path prepending, routine traffic engineering); an attacker that
// receives the route removes λ−1 of the copies and re-advertises it. The
// bogus route is λ−1 hops shorter without a false origin or a fake link,
// so much of the Internet switches to it and the attacker transparently
// intercepts traffic that still reaches the victim.
//
// The package wraps the internal engines behind one entry point:
//
//	internet, err := aspp.NewInternet(aspp.WithSize(4000), aspp.WithSeed(7))
//	impact, err := internet.SimulateAttack(aspp.Scenario{
//		Victim:   victim,
//		Attacker: attacker,
//		Prepend:  3,
//	})
//	fmt.Printf("polluted: %.1f%%\n", 100*impact.After())
//
// Experiment drivers regenerate every figure of the paper's evaluation;
// see the examples directory, cmd/asppbench and EXPERIMENTS.md.
package aspp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

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
	"aspp/internal/stats"
	"aspp/internal/topology"
	"aspp/internal/trace"
)

// Core data types, re-exported for the public API surface.
type (
	// ASN is an autonomous system number.
	ASN = bgp.ASN
	// Path is a BGP AS-PATH with literal prepending.
	Path = bgp.Path
	// Update is one monitor-observed routing change.
	Update = bgp.Update
	// Graph is an immutable AS-level topology.
	Graph = topology.Graph
	// GenConfig parameterizes the topology generator.
	GenConfig = topology.GenConfig
	// Scenario configures one interception attack.
	Scenario = core.Scenario
	// Impact is the simulated outcome of one attack.
	Impact = core.Impact
	// Announcement is the victim's prefix advertisement.
	Announcement = routing.Announcement
	// RoutingResult is a stable per-AS routing outcome.
	RoutingResult = routing.Result
	// Alarm is one detection event.
	Alarm = detect.Alarm
	// Detector consumes update streams and raises alarms.
	Detector = detect.Detector
	// PairConfig drives the attacker/victim pair experiments (Figs. 7-8).
	PairConfig = experiment.PairConfig
	// PairImpact is one hijack instance's result.
	PairImpact = experiment.PairImpact
	// SweepPoint is one λ step of a prepend sweep (Figs. 9-12).
	SweepPoint = experiment.SweepPoint
	// DetectionConfig drives the detection experiments (Figs. 13-14).
	DetectionConfig = experiment.DetectionConfig
	// DetectionColumn is one monitor placement and relationship source the
	// detection experiments evaluate on their shared attack draw.
	DetectionColumn = experiment.DetectionColumn
	// DetectionOutcome carries detection accuracy and latency series.
	DetectionOutcome = experiment.DetectionOutcome
	// PolicyConfig assigns prepending policies to origins (Figs. 5-6).
	PolicyConfig = collector.PolicyConfig
	// SurveyConfig drives the ASPP usage survey.
	SurveyConfig = measure.SurveyConfig
	// SurveyResult is the usage survey outcome.
	SurveyResult = measure.SurveyResult
	// CaseStudy is the §III Facebook anomaly reproduction.
	CaseStudy = experiment.CaseStudy
	// CDF is an empirical distribution, used by several results.
	CDF = stats.CDF
	// TraceHop is one simulated traceroute line (Table I).
	TraceHop = trace.Hop
	// DefenseConfig drives victim self-defense evaluation (monitor
	// placement strategies over the owner-policy check).
	DefenseConfig = defense.Config
	// DefenseOutcome is one placement strategy's evaluation.
	DefenseOutcome = defense.Outcome
	// MitigationOutcome quantifies a victim's reactive response.
	MitigationOutcome = defense.MitigationOutcome
	// Counters collects optional per-sweep telemetry (propagations per
	// engine, baseline-cache hits/misses, skipped draws, churn updates).
	// The zero value is ready to use; nil disables recording. Use one
	// Counters per sweep and read it with Snapshot.
	Counters = obs.Counters
	// CountersSnapshot is a consistent point-in-time read of Counters.
	CountersSnapshot = obs.Snapshot
	// SweepConfig drives the prepend sweeps (Figs. 9-12).
	SweepConfig = experiment.SweepConfig
)

// Re-exported constructors and helpers.
var (
	// ParseASN parses "7018" or "AS7018".
	ParseASN = bgp.ParseASN
	// ParsePath parses "7018 3356 32934 32934".
	ParsePath = bgp.ParsePath
	// DefaultDetectionConfig mirrors the paper's Figs. 13-14 setup.
	DefaultDetectionConfig = experiment.DefaultDetectionConfig
	// FacebookCaseStudy builds and simulates the §III anomaly.
	FacebookCaseStudy = experiment.FacebookCaseStudy
	// RenderTraceroute formats hops like the paper's Table I.
	RenderTraceroute = trace.Render
)

// Pair-experiment kinds (Figs. 7-8).
const (
	PairsTier1  = experiment.PairsTier1
	PairsRandom = experiment.PairsRandom
)

// Monitor-selection policies for detection experiments.
const (
	MonitorsTopDegree = experiment.MonitorsTopDegree
	MonitorsRandom    = experiment.MonitorsRandom
)

// Self-defense monitor-placement strategies.
const (
	StrategyTopDegree  = defense.StrategyTopDegree
	StrategyRandom     = defense.StrategyRandom
	StrategyVictimCone = defense.StrategyVictimCone
	StrategyGreedy     = defense.StrategyGreedy
)

// Victim mitigation responses.
const (
	MitigateUnprepend = defense.MitigateUnprepend
	MitigateWithhold  = defense.MitigateWithhold
)

// Internet is the top-level handle: a topology plus the operations the
// paper's study needs. It is immutable and safe for concurrent use.
type Internet struct {
	g *topology.Graph
}

// Option configures NewInternet.
type Option interface {
	apply(*options)
}

type options struct {
	size int
	seed *int64 // nil: no WithSeed
	gen  *topology.GenConfig
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithSize sets the number of ASes to generate (default 4000).
func WithSize(n int) Option {
	return optionFunc(func(o *options) { o.size = n })
}

// WithSeed sets the generator seed. It wins over a WithGenConfig
// configuration's own Seed; without it that Seed applies, and the default
// is 1.
func WithSeed(seed int64) Option {
	return optionFunc(func(o *options) { o.seed = &seed })
}

// WithGenConfig supplies a full generator configuration, overriding
// WithSize. Its Seed applies unless WithSeed is given; 0 means 1.
func WithGenConfig(cfg GenConfig) Option {
	return optionFunc(func(o *options) { c := cfg; o.gen = &c })
}

// NewInternet generates an Internet from the options: a supplied generator
// configuration, or a default one of WithSize's size.
func NewInternet(opts ...Option) (*Internet, error) {
	o := options{size: 4000}
	for _, opt := range opts {
		opt.apply(&o)
	}
	cfg := topology.DefaultGenConfig(o.size)
	if o.gen != nil {
		cfg = *o.gen
	}
	switch {
	case o.seed != nil:
		cfg.Seed = *o.seed
	case cfg.Seed == 0:
		cfg.Seed = 1
	}
	g, err := topology.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("aspp: generate topology: %w", err)
	}
	return &Internet{g: g}, nil
}

// Update types, re-exported for building update streams.
const (
	Announce = bgp.Announce
	Withdraw = bgp.Withdraw
)

// LoadInternetFromString parses an inline serial-2 relationship listing;
// handy for small hand-built scenarios and examples.
func LoadInternetFromString(s string) (*Internet, error) {
	return LoadInternet(strings.NewReader(s))
}

// LoadInternet reads a CAIDA serial-2 style relationship file
// ("provider|customer|-1", "peer|peer|0") and wraps it as an Internet.
func LoadInternet(r io.Reader) (*Internet, error) {
	g, err := topology.ReadSerial2(r)
	if err != nil {
		return nil, fmt.Errorf("aspp: load topology: %w", err)
	}
	return &Internet{g: g}, nil
}

// OpenInternet is how the commands take their topology: the serial-2 file at
// path, or — path empty — what NewInternet generates from opts.
func OpenInternet(path string, opts ...Option) (*Internet, error) {
	if path == "" {
		return NewInternet(opts...)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadInternet(f)
}

// ParseMonitors resolves a -monitors flag: "topK" (the K >= 1 best-connected
// ASes of g) or an explicit comma-separated ASN list. asppserve and asppload
// must agree on it to speak of the same vantage points.
func ParseMonitors(spec string, g *Graph) ([]ASN, error) {
	if k, ok := strings.CutPrefix(spec, "top"); ok {
		kn, err := strconv.Atoi(k)
		if err != nil || kn < 1 {
			return nil, fmt.Errorf("bad -monitors %q: want topK, K >= 1", spec)
		}
		return g.TopByDegree(kn), nil
	}
	var mons []ASN
	for _, f := range strings.Split(spec, ",") {
		asn, err := bgp.ParseASN(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -monitors %q: %w", spec, err)
		}
		mons = append(mons, asn)
	}
	return mons, nil
}

// ChurnCorpus is the update stream asppserve -selftest and asppload replay:
// events failure/restore cycles of g's default origins, planned from
// seed+1, as the monitors see them. Both build it here so that, given the
// same flags, they speak of the same prefixes. A stream with no update in it
// — no monitor hears any event — is an error, since neither can replay it.
// c may be nil.
func ChurnCorpus(g *Graph, monitors []ASN, events int, seed int64, c *Counters) ([]Update, error) {
	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	if err != nil {
		return nil, err
	}
	evs := collector.PlanChurn(origins, events, seed+1)
	if len(evs) == 0 {
		return nil, errors.New("no churn events planned (topology too small?)")
	}
	ups, err := collector.ChurnStream(g, origins, evs, monitors, 0, c)
	if err == nil && len(ups) == 0 {
		err = fmt.Errorf("empty update corpus: none of the %d monitors sees a churn event (monitors outside the topology?)", len(monitors))
	}
	return ups, err
}

// WriteTopology writes the topology in serial-2 format.
func (in *Internet) WriteTopology(w io.Writer) error {
	return topology.WriteSerial2(w, in.g)
}

// Graph exposes the underlying topology.
func (in *Internet) Graph() *Graph { return in.g }

// Tier1s returns the provider-free core ASes.
func (in *Internet) Tier1s() []ASN { return in.g.Tier1s() }

// SimulateAttack runs one attack — ASPP interception, or the hijack
// family sc.Type names (see core.Simulate).
func (in *Internet) SimulateAttack(sc Scenario) (*Impact, error) {
	return core.Simulate(in.g, sc)
}

// SimulateAttackObs is SimulateAttack recording propagation telemetry
// into the optional counters (nil disables recording).
func (in *Internet) SimulateAttackObs(sc Scenario, c *Counters) (*Impact, error) {
	im, err := core.SimulateScratch(in.g, sc, nil, nil, c)
	if err != nil {
		return nil, err
	}
	return &im, nil
}

// SamplePairsCtx runs the ranked pair experiments (paper Figs. 7-8). Once
// ctx is cancelled no further instance is simulated, in-flight work
// drains, and ctx.Err() is returned.
func (in *Internet) SamplePairsCtx(ctx context.Context, cfg PairConfig) ([]PairImpact, error) {
	return experiment.SamplePairsCtx(ctx, in.g, cfg)
}

// RunDetectionCtx evaluates the detection algorithm (paper Figs. 13-14),
// with cooperative cancellation.
func (in *Internet) RunDetectionCtx(ctx context.Context, cfg DetectionConfig) (*DetectionOutcome, error) {
	return experiment.RunDetectionCtx(ctx, in.g, cfg)
}

// NewDetector builds a streaming detector over the given vantage points,
// using the topology's relationships for the hint rules.
func (in *Internet) NewDetector(monitors []ASN) *Detector {
	return detect.NewDetector(monitors, in.g)
}

// UsageSurvey characterizes ASPP usage from monitor tables and update
// streams (paper Figs. 5-6). A zero policy selects the calibrated
// prepending mix. A survey with neither ChurnEvents nor Monitors selects
// the standard survey, keeping only its Seed (0 means 1) and Counters;
// the propagation fan-out is GOMAXPROCS.
func (in *Internet) UsageSurvey(policy PolicyConfig, survey SurveyConfig) (*SurveyResult, error) {
	if policy.MaxLambda == 0 && policy.PrependFrac == 0 {
		policy = collector.DefaultPolicyConfig()
	}
	if survey.ChurnEvents == 0 && len(survey.Monitors) == 0 {
		def := measure.DefaultSurveyConfig()
		def.Seed = survey.Seed
		def.Counters = survey.Counters
		if def.Seed == 0 {
			def.Seed = 1
		}
		survey = def
	}
	origins, err := collector.AssignOrigins(in.g, policy)
	if err != nil {
		return nil, err
	}
	return measure.RunSurvey(in.g, origins, survey)
}

// InferRelationships rebuilds AS relationships from simulated monitor
// paths (the paper's §IV-A preprocessing): Gao's algorithm, the tier-1
// seeded variant, and their consensus. It returns the consensus inference
// and its accuracy against the generator's ground truth.
func (in *Internet) InferRelationships(originSample, nTopMonitors int) (*relinfer.Inferred, relinfer.Accuracy, error) {
	monitors := measure.DefaultMonitors(in.g, nTopMonitors, nTopMonitors/2, 1)
	paths, err := relinfer.CollectPaths(in.g, relinfer.SampleOrigins(in.g, originSample), monitors, 0)
	if err != nil {
		return nil, relinfer.Accuracy{}, err
	}
	plain, err := relinfer.Gao(paths, relinfer.GaoConfig{})
	if err != nil {
		return nil, relinfer.Accuracy{}, err
	}
	seeded, err := relinfer.Tier1Seeded(paths, in.g.Tier1s())
	if err != nil {
		return nil, relinfer.Accuracy{}, err
	}
	cons, err := relinfer.Consensus(paths, plain, seeded)
	if err != nil {
		return nil, relinfer.Accuracy{}, err
	}
	return cons, relinfer.Score(cons, in.g), nil
}

// CompareDefenses evaluates the monitor-placement strategies for one
// victim (the paper's §VIII future-work agenda).
func (in *Internet) CompareDefenses(cfg DefenseConfig) ([]DefenseOutcome, error) {
	return defense.Compare(in.g, cfg)
}

// DefaultDefenseConfig returns a calibrated self-defense setup.
var DefaultDefenseConfig = defense.DefaultConfig

// Mitigate simulates a victim's reactive response to an ongoing attack.
func (in *Internet) Mitigate(sc Scenario, m defense.Mitigation) (*MitigationOutcome, error) {
	return defense.Mitigate(in.g, sc, m)
}

// ErrAttackerSeesNoRoute re-exports the core sentinel: the attacker never
// receives the victim's route, so there is nothing to strip. Match it
// with errors.Is.
var ErrAttackerSeesNoRoute = core.ErrAttackerSeesNoRoute
