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
// the attack. The same call quantifies the two classic hijacks the paper
// sets the attack against (Scenario.Type), so the three families are
// directly comparable.
//
// Which routing engine runs a leg is decided here, from the scenario and
// the graph (DESIGN §5.7): ASPP attacks on a sibling-free topology run the
// incremental delta engine, everything else — forged claims, and every
// attack on a topology with sibling links — the full kernel.
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

// AttackType enumerates the prefix-hijack families the paper contrasts
// (§II.B): the ASPP-based interception that is its contribution (the zero
// value) and the two classic forged-announcement hijacks.
type AttackType = routing.AttackKind

// The attack families (see routing.AttackKind).
const (
	AttackASPP                = routing.AttackASPP
	AttackOriginHijack        = routing.AttackOriginHijack
	AttackNextHopInterception = routing.AttackNextHopInterception
)

// Scenario is one attack instance.
type Scenario struct {
	// Victim is the prefix owner (origin AS).
	Victim bgp.ASN
	// Attacker is the intercepting AS.
	Attacker bgp.ASN
	// Type is the attack family (zero value: AttackASPP). The forged
	// families ignore KeepPrepend and ViolateValleyFree and need no route
	// from the attacker to the victim.
	Type AttackType
	// Prepend λ is the victim's origin-prepend count (>= 1).
	Prepend int
	// PerNeighborPrepend optionally varies λ per victim neighbor; λ 0
	// withholds the announcement from that neighbor (selective
	// announcement or failed session).
	PerNeighborPrepend map[bgp.ASN]int
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

// Announcement converts the scenario into the routing-layer announcement.
func (s Scenario) Announcement() routing.Announcement {
	return routing.Announcement{Origin: s.Victim, Prepend: s.Prepend, PerNeighbor: s.PerNeighborPrepend}
}

// AttackerConfig converts the scenario into the routing-layer attacker.
func (s Scenario) AttackerConfig() routing.Attacker {
	return routing.Attacker{
		AS:                s.Attacker,
		Kind:              s.Type,
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

// Counts is the value-only pollution summary of one attack — all a sweep
// that aggregates fractions keeps of an Impact.
type Counts struct {
	// Eligible is the number of ASes that could be polluted: every AS
	// with a route, excluding the victim and the attacker.
	Eligible int
	// PollutedAfter is how many eligible ASes route via the attacker
	// under the attack; PollutedBefore is the same count beforehand.
	PollutedBefore, PollutedAfter int
}

// Before returns the fraction of eligible ASes whose traffic to the victim
// traversed the attacker before the attack.
func (c Counts) Before() float64 { return frac(c.PollutedBefore, c.Eligible) }

// After returns the fraction polluted by the attack — the paper's
// "% of paths traversing attacker" metric.
func (c Counts) After() float64 { return frac(c.PollutedAfter, c.Eligible) }

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Impact is the outcome of one simulated attack: its Counts plus the two
// routing outcomes they were read off.
type Impact struct {
	Scenario Scenario
	Counts

	baseline *routing.Result
	attacked *routing.Result
	viaBase  []bool
	// cone lists the only ASes whose route or via bits the attack can have
	// changed (routing.Scratch.DeltaCone) when the delta engine ran the leg;
	// nil means every AS.
	cone []int32
	// atkIdx is the attacker's dense graph index.
	atkIdx int32
}

// eachIdx calls visit on every AS index the attack can concern — cone, or
// with a nil cone all n — until visit returns false.
func eachIdx(cone []int32, n int, visit func(i int32) bool) {
	if cone != nil {
		for _, i := range cone {
			if !visit(i) {
				return
			}
		}
		return
	}
	for i := int32(0); i < int32(n); i++ {
		if !visit(i) {
			return
		}
	}
}

// Baseline exposes the pre-attack routing outcome.
func (im *Impact) Baseline() *routing.Result { return im.baseline }

// Attacked exposes the under-attack routing outcome.
func (im *Impact) Attacked() *routing.Result { return im.attacked }

// NewlyPolluted lists ASes that traverse the attacker under attack but did
// not before — the ASes the attack actually captured.
func (im *Impact) NewlyPolluted() []bgp.ASN {
	g := im.attacked.Graph()
	var out []bgp.ASN
	eachIdx(im.cone, len(im.viaBase), func(i int32) bool {
		if im.attacked.Via[i] && !im.viaBase[i] {
			out = append(out, g.ASNAt(i))
		}
		return true
	})
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Effective reports whether the attack captured anyone: NewlyPolluted is
// non-empty. It allocates nothing — the draw loops call it once per leg.
func (im *Impact) Effective() bool {
	captured := false
	eachIdx(im.cone, len(im.viaBase), func(i int32) bool {
		captured = im.attacked.Via[i] && !im.viaBase[i]
		return !captured
	})
	return captured
}

// PathsAt returns an AS's best path before and after the attack.
func (im *Impact) PathsAt(asn bgp.ASN) (before, after bgp.Path) {
	return im.baseline.PathOf(asn), im.attacked.PathOf(asn)
}

// HopsFromAttackerIdx returns the number of AS hops between the AS at dense
// index i and the attacker along its polluted path (1 = direct neighbor),
// or -1 if the AS is not polluted. The detection-latency experiment uses
// this as the bogus route's propagation time to that AS.
func (im *Impact) HopsFromAttackerIdx(i int32) int {
	if !im.attacked.Via[i] {
		return -1
	}
	hops := 0
	for j := i; j != im.atkIdx; j = im.attacked.Parent[j] {
		hops++
	}
	return hops
}

func mustIdx(g *topology.Graph, asn bgp.ASN) int32 {
	i, _ := g.Index(asn)
	return i
}

// SimulateScratch runs sc's two legs on the engines the scenario and the
// graph call for and derives the pollution counts. baseline is an optional
// precomputed no-attack result for the announcement — routing.Propagate's,
// or s's own base slot, where experiment's leg runner keeps its victim
// propagated or shifted to the leg's λ — used read-only; it MUST match the
// announcement's origin, λ and per-neighbor λ table (a withheld session is
// λ 0), which callers own; nil propagates it into s. Telemetry goes to the
// optional counters (nil: none); the attack leg counts as a delta
// propagation when the delta engine ran it, as a full one otherwise.
//
// Propagation state, the attacked result and the via set are borrowed from
// s (one Scratch per goroutine — see the routing.Scratch ownership
// contract), so the returned Impact is itself borrowed: valid until the
// next call on s. Its Counts are plain values; anything else a caller keeps
// it must copy out first. With a nil s the call runs on a fresh private
// Scratch and the Impact owns its results. A delta leg's accounting — the
// baseline via set, the counts, Effective, NewlyPolluted — visits the
// attacker's cone only (DESIGN §5.7).
func SimulateScratch(g *topology.Graph, sc Scenario, baseline *routing.Result, s *routing.Scratch, c *obs.Counters) (Impact, error) {
	if sc.Victim == sc.Attacker {
		return Impact{}, errors.New("core: victim and attacker must differ")
	}
	if s == nil {
		s = routing.NewScratch()
	}
	ann, atk := sc.Announcement(), sc.AttackerConfig()
	var err error
	if baseline == nil {
		if baseline, err = routing.PropagateScratch(g, ann, s); err != nil {
			return Impact{}, fmt.Errorf("core: baseline: %w", err)
		}
		c.Add(obs.BasePropagations, 1)
	}
	var attacked *routing.Result
	delta := sc.Type == AttackASPP && !g.HasSiblings()
	if delta {
		attacked, err = routing.PropagateAttackDelta(g, ann, atk, baseline, s)
	} else {
		attacked, err = routing.PropagateAttackScratch(g, ann, atk, baseline, s)
	}
	if errors.Is(err, routing.ErrUnreachableAttacker) {
		return Impact{}, ErrAttackerSeesNoRoute
	}
	if err != nil {
		return Impact{}, fmt.Errorf("core: attack: %w", err)
	}
	// A delta leg's accounting is sized by the attacker's cone: every AS
	// with a via bit, before or after, lies in it.
	var cone []int32
	if delta {
		cone = s.DeltaCone()
		c.Add(obs.DeltaPropagations, 1)
		c.Add(obs.ConeRows, int64(len(cone)))
	} else {
		c.Add(obs.FullPropagations, 1)
	}
	viaBase := baseline.ViaSetInto(sc.Attacker, s, cone)
	return Impact{
		Scenario: sc,
		Counts:   countPollution(g, sc, baseline, attacked, viaBase, cone),
		baseline: baseline,
		attacked: attacked,
		viaBase:  viaBase,
		cone:     cone,
		atkIdx:   mustIdx(g, sc.Attacker),
	}, nil
}

// Simulate runs one attack: a baseline propagation of the victim's
// announcement, then the attack propagation, and derives the pollution
// metrics. Returns ErrAttackerSeesNoRoute when an ASPP attacker never
// learns the victim's route.
func Simulate(g *topology.Graph, sc Scenario) (*Impact, error) {
	im, err := SimulateScratch(g, sc, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	return &im, nil
}

// countPollution tallies an attack's pollution counts over cone (nil: every
// AS). Eligible is the baseline's reachable count — taken once per
// whole-graph propagation, not per leg — less the attacker. A via bit is never set on the
// victim or the attacker, and one set before the attack implies a route, so
// only an AS the attack newly reaches needs its eligibility looked up.
func countPollution(g *topology.Graph, sc Scenario, baseline, attacked *routing.Result, viaBase []bool, cone []int32) Counts {
	cnt := Counts{Eligible: baseline.ReachableCount()}
	if baseline.Reachable(sc.Attacker) {
		cnt.Eligible--
	}
	eachIdx(cone, g.NumASes(), func(i int32) bool {
		if viaBase[i] {
			cnt.PollutedBefore++
		}
		if attacked.Via[i] && baseline.ReachableIdx(i) {
			cnt.PollutedAfter++
		}
		return true
	})
	return cnt
}
