// Package core implements the paper's primary contribution: the ASPP-based
// prefix interception attack model and its impact quantification.
//
// A victim AS V announces its prefix with λ copies of its own ASN (AS-path
// prepending, a routine traffic-engineering practice). The attacker M, upon
// receiving the route [* V...V], removes λ−1 of the prepended copies and
// re-advertises [M * V]. Because the modified route is λ−1 hops shorter —
// while introducing no false origin and no non-existent AS link — much of
// the Internet may switch to it, letting M intercept traffic that still
// ultimately reaches V.
//
// Simulate quantifies the attack on a given topology: which ASes adopt the
// bogus route ("polluted"), compared against how many traversed M before
// the attack.
package core

import (
	"errors"
	"fmt"
	"sort"

	"aspp/internal/bgp"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// Scenario is one interception-attack instance.
type Scenario struct {
	// Victim is the prefix owner (origin AS).
	Victim bgp.ASN
	// Attacker is the intercepting AS.
	Attacker bgp.ASN
	// Prepend λ is the victim's origin-prepend count (>= 1).
	Prepend int
	// PerNeighborPrepend optionally varies λ per victim neighbor.
	PerNeighborPrepend map[bgp.ASN]int
	// WithholdFrom lists victim neighbors that do not receive the
	// announcement at all (selective announcement or failed session).
	WithholdFrom []bgp.ASN
	// KeepPrepend is how many origin copies the attacker leaves (default 1).
	KeepPrepend int
	// ViolateValleyFree makes the attacker export the bogus route to all
	// neighbors, ignoring export policy (paper Figs. 11-12).
	ViolateValleyFree bool
}

func (s Scenario) String() string {
	return fmt.Sprintf("%v hijacks %v (λ=%d, violate=%v)",
		s.Attacker, s.Victim, s.Prepend, s.ViolateValleyFree)
}

// announcement converts the scenario into the routing-layer announcement.
func (s Scenario) announcement() routing.Announcement {
	ann := routing.Announcement{
		Origin:      s.Victim,
		Prepend:     s.Prepend,
		PerNeighbor: s.PerNeighborPrepend,
	}
	if len(s.WithholdFrom) > 0 {
		ann.Withhold = make(map[bgp.ASN]bool, len(s.WithholdFrom))
		for _, n := range s.WithholdFrom {
			ann.Withhold[n] = true
		}
	}
	return ann
}

// attacker converts the scenario into the routing-layer attacker.
func (s Scenario) attacker() routing.Attacker {
	return routing.Attacker{
		AS:                s.Attacker,
		KeepPrepend:       s.KeepPrepend,
		ViolateValleyFree: s.ViolateValleyFree,
	}
}

// ErrAttackerSeesNoRoute reports that the attacker never receives the
// victim's route and therefore cannot launch the interception. It wraps
// routing.ErrUnreachableAttacker, so errors.Is matches either sentinel at
// any layer. This is the *skippable* class of the sweep error contract
// (DESIGN §6): a property of the drawn scenario, not a failure of the
// machinery — drivers redraw such instances and abort on anything else.
var ErrAttackerSeesNoRoute = fmt.Errorf("core: attacker receives no route for the victim prefix: %w", routing.ErrUnreachableAttacker)

// Impact is the outcome of one simulated attack.
type Impact struct {
	Scenario Scenario

	// Eligible is the number of ASes that could be polluted: every AS
	// with a route, excluding the victim and the attacker.
	Eligible int
	// PollutedAfter is how many eligible ASes route via the attacker
	// under the attack; PollutedBefore is the same count beforehand.
	PollutedBefore, PollutedAfter int

	baseline *routing.Result
	attacked *routing.Result
	viaBase  []bool
}

// Before returns the fraction of eligible ASes whose traffic to the victim
// traversed the attacker before the attack.
func (im *Impact) Before() float64 { return frac(im.PollutedBefore, im.Eligible) }

// After returns the fraction polluted by the attack — the paper's
// "% of paths traversing attacker" metric.
func (im *Impact) After() float64 { return frac(im.PollutedAfter, im.Eligible) }

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Baseline exposes the pre-attack routing outcome.
func (im *Impact) Baseline() *routing.Result { return im.baseline }

// Attacked exposes the under-attack routing outcome.
func (im *Impact) Attacked() *routing.Result { return im.attacked }

// PollutedASes lists the ASes that adopt the bogus route, sorted by ASN.
func (im *Impact) PollutedASes() []bgp.ASN {
	g := im.attacked.Graph()
	var out []bgp.ASN
	for i, v := range im.attacked.Via {
		if v && int32(i) != mustIdx(g, im.Scenario.Attacker) {
			out = append(out, g.ASNAt(int32(i)))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// NewlyPolluted lists ASes that traverse the attacker under attack but did
// not before — the ASes the attack actually captured.
func (im *Impact) NewlyPolluted() []bgp.ASN {
	g := im.attacked.Graph()
	var out []bgp.ASN
	for i, v := range im.attacked.Via {
		if v && !im.viaBase[i] {
			out = append(out, g.ASNAt(int32(i)))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// PathsAt returns an AS's best path before and after the attack.
func (im *Impact) PathsAt(asn bgp.ASN) (before, after bgp.Path) {
	return im.baseline.PathOf(asn), im.attacked.PathOf(asn)
}

// IsPolluted reports whether asn adopted the bogus route.
func (im *Impact) IsPolluted(asn bgp.ASN) bool {
	g := im.attacked.Graph()
	i, ok := g.Index(asn)
	if !ok {
		return false
	}
	return im.attacked.Via[i]
}

// HopsFromAttacker returns the number of AS hops between a polluted AS and
// the attacker along its polluted path (1 = direct neighbor), or -1 if the
// AS is not polluted. The detection-latency experiment uses this as the
// bogus route's propagation time to that AS.
func (im *Impact) HopsFromAttacker(asn bgp.ASN) int {
	i, ok := im.attacked.Graph().Index(asn)
	if !ok {
		return -1
	}
	return im.HopsFromAttackerIdx(i)
}

// HopsFromAttackerIdx is HopsFromAttacker by dense graph index — the
// detection-latency hot path iterates the Via slice directly and skips
// the ASN round trip.
func (im *Impact) HopsFromAttackerIdx(i int32) int {
	if !im.attacked.Via[i] {
		return -1
	}
	atkIdx := mustIdx(im.attacked.Graph(), im.Scenario.Attacker)
	hops := 0
	for j := i; j != atkIdx; j = im.attacked.Parent[j] {
		hops++
	}
	return hops
}

func mustIdx(g *topology.Graph, asn bgp.ASN) int32 {
	i, _ := g.Index(asn)
	return i
}

// BaselineOnly propagates the scenario's announcement with no attacker
// active (used by mitigation analysis to measure reachability costs of a
// response that cuts the attacker off).
func BaselineOnly(g *topology.Graph, sc Scenario) (*routing.Result, error) {
	ann := sc.announcement()
	if g.HasSiblings() {
		return routing.PropagateReference(g, ann, nil)
	}
	return routing.Propagate(g, ann)
}

// simulateReference runs both propagations on the message-level engine,
// which handles sibling links. The reference engine degrades an
// unreachable attacker to a no-op, so reachability is checked explicitly
// to preserve ErrAttackerSeesNoRoute semantics.
func simulateReference(g *topology.Graph, ann routing.Announcement, sc Scenario, c *obs.Counters) (baseline, attacked *routing.Result, err error) {
	baseline, err = routing.PropagateReference(g, ann, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("core: baseline: %w", err)
	}
	c.AddBasePropagations(1)
	if !baseline.Reachable(sc.Attacker) {
		return nil, nil, routing.ErrUnreachableAttacker
	}
	atk := sc.attacker()
	attacked, err = routing.PropagateReference(g, ann, &atk)
	return baseline, attacked, err
}

// Simulate runs one interception attack: a baseline propagation of the
// victim's announcement, then the attack propagation, and derives the
// pollution metrics. Returns ErrAttackerSeesNoRoute when the attacker
// never learns the victim's route. Topologies with sibling links are
// routed by the message-level Reference engine automatically.
func Simulate(g *topology.Graph, sc Scenario) (*Impact, error) {
	return SimulateWithBaseline(g, sc, nil, nil)
}

// SimulateWithBaseline is Simulate with an optional precomputed no-attack
// baseline for the scenario's announcement (as produced by BaselineOnly,
// or experiment's per-(origin, λ) cache). The baseline is used read-only
// and may be shared across concurrent simulations; it MUST match the
// scenario's announcement exactly (same origin, λ, per-neighbor prepends
// and withholds) — callers own that invariant. Pass nil to compute it.
// Propagation telemetry is recorded into the optional counters (nil
// disables recording). Both propagation legs of the message-level
// fallback count as full propagations — the delta engine never runs on
// this path.
func SimulateWithBaseline(g *topology.Graph, sc Scenario, baseline *routing.Result, c *obs.Counters) (*Impact, error) {
	if sc.Victim == sc.Attacker {
		return nil, errors.New("core: victim and attacker must differ")
	}
	ann := sc.announcement()
	var (
		attacked *routing.Result
		err      error
	)
	if g.HasSiblings() {
		if baseline == nil {
			baseline, attacked, err = simulateReference(g, ann, sc, c)
		} else {
			if !baseline.Reachable(sc.Attacker) {
				return nil, ErrAttackerSeesNoRoute
			}
			atk := sc.attacker()
			attacked, err = routing.PropagateReference(g, ann, &atk)
		}
	} else {
		if baseline == nil {
			baseline, err = routing.Propagate(g, ann)
			if err != nil {
				return nil, fmt.Errorf("core: baseline: %w", err)
			}
			c.AddBasePropagations(1)
		}
		attacked, err = routing.PropagateAttack(g, ann, sc.attacker(), baseline)
	}
	if errors.Is(err, routing.ErrUnreachableAttacker) {
		return nil, ErrAttackerSeesNoRoute
	}
	if err != nil {
		return nil, fmt.Errorf("core: attack: %w", err)
	}
	c.AddFullPropagations(1)

	im := &Impact{
		Scenario: sc,
		baseline: baseline,
		attacked: attacked,
		viaBase:  baseline.ViaSet(sc.Attacker),
	}
	countPollution(g, sc, baseline, attacked, im.viaBase,
		&im.Eligible, &im.PollutedBefore, &im.PollutedAfter)
	return im, nil
}

// Counts is the value-only pollution summary of one attack: what Impact
// reports, without retaining the routing results. The sweep drivers use it
// with reusable scratch state so a pair sweep does not allocate per
// instance.
type Counts struct {
	// Eligible, PollutedBefore, PollutedAfter: as in Impact.
	Eligible       int
	PollutedBefore int
	PollutedAfter  int
}

// Before returns the pre-attack polluted fraction.
func (c Counts) Before() float64 { return frac(c.PollutedBefore, c.Eligible) }

// After returns the under-attack polluted fraction.
func (c Counts) After() float64 { return frac(c.PollutedAfter, c.Eligible) }

// EngineKind selects the attack-propagation engine for the scratch-based
// sweep hot path (SimulateCounts). It is an ablation knob: every
// engine computes the identical stable outcome (pinned by the routing
// package's differential suite), they differ only in cost.
type EngineKind uint8

const (
	// EngineAuto (the zero value) uses the Delta engine whenever a
	// precomputed baseline is supplied — the sweep-driver case, where
	// the BaselineCache already paid for it — and the Full engine
	// otherwise.
	EngineAuto EngineKind = iota
	// EngineFull always runs the full three-phase attack propagation.
	EngineFull
	// EngineDelta always runs the incremental delta propagation,
	// computing the baseline into the Scratch first when none is given.
	EngineDelta
)

// String names the engine kind (the asppbench -engine flag values).
func (e EngineKind) String() string {
	switch e {
	case EngineFull:
		return "full"
	case EngineDelta:
		return "delta"
	default:
		return "auto"
	}
}

// ParseEngineKind parses an -engine flag value.
func ParseEngineKind(s string) (EngineKind, error) {
	switch s {
	case "auto", "":
		return EngineAuto, nil
	case "full":
		return EngineFull, nil
	case "delta":
		return EngineDelta, nil
	}
	return EngineAuto, fmt.Errorf("core: unknown engine %q (want full or delta)", s)
}

// SimulateCounts runs one interception attack on the allocation-free path:
// propagation state and the transient routing results are borrowed from s
// (one Scratch per goroutine — see the routing.Scratch ownership
// contract), and only the pollution counts survive the call. baseline is
// optional exactly as in SimulateWithBaseline. engine picks the attack
// leg (the asppbench -engine ablation); sibling-bearing topologies and
// nil Scratches ignore the choice — they run the message-level fallback,
// which allocates. The optional counters record one base propagation when
// the baseline is computed here, and one full or delta propagation for
// the attack leg depending on which engine actually ran.
func SimulateCounts(g *topology.Graph, sc Scenario, baseline *routing.Result, s *routing.Scratch, engine EngineKind, c *obs.Counters) (Counts, error) {
	if g.HasSiblings() || s == nil {
		im, err := SimulateWithBaseline(g, sc, baseline, c)
		if err != nil {
			return Counts{}, err
		}
		return Counts{Eligible: im.Eligible, PollutedBefore: im.PollutedBefore, PollutedAfter: im.PollutedAfter}, nil
	}
	if sc.Victim == sc.Attacker {
		return Counts{}, errors.New("core: victim and attacker must differ")
	}
	ann := sc.announcement()
	useDelta := engine == EngineDelta || (engine == EngineAuto && baseline != nil)
	var err error
	if baseline == nil {
		baseline, err = routing.PropagateScratch(g, ann, s)
		if err != nil {
			return Counts{}, fmt.Errorf("core: baseline: %w", err)
		}
		c.AddBasePropagations(1)
	}
	var attacked *routing.Result
	if useDelta {
		attacked, err = routing.PropagateAttackDelta(g, ann, sc.attacker(), baseline, s)
	} else {
		attacked, err = routing.PropagateAttackScratch(g, ann, sc.attacker(), baseline, s)
	}
	if errors.Is(err, routing.ErrUnreachableAttacker) {
		return Counts{}, ErrAttackerSeesNoRoute
	}
	if err != nil {
		return Counts{}, fmt.Errorf("core: attack: %w", err)
	}
	if useDelta {
		c.AddDeltaPropagations(1)
	} else {
		c.AddFullPropagations(1)
	}
	via, state, stack := s.ViaBuffers(g)
	viaBase := baseline.ViaSetInto(sc.Attacker, via, state, stack)
	var cnt Counts
	countPollution(g, sc, baseline, attacked, viaBase,
		&cnt.Eligible, &cnt.PollutedBefore, &cnt.PollutedAfter)
	return cnt, nil
}

// countPollution tallies the three pollution counters shared by Impact and
// Counts.
func countPollution(g *topology.Graph, sc Scenario, baseline, attacked *routing.Result, viaBase []bool, eligible, before, after *int) {
	vIdx := mustIdx(g, sc.Victim)
	aIdx := mustIdx(g, sc.Attacker)
	for i := int32(0); i < int32(g.NumASes()); i++ {
		if i == vIdx || i == aIdx || !baseline.ReachableIdx(i) {
			continue
		}
		*eligible++
		if viaBase[i] {
			*before++
		}
		if attacked.Via[i] {
			*after++
		}
	}
}
