// Package routing implements BGP route propagation over an AS topology
// under the valley-free, profit-driven policy model the paper simulates:
// every AS prefers customer-learned routes over peer-learned over
// provider-learned, breaks ties by shortest AS-path (counting prepends),
// and exports peer/provider-learned routes only to its customers.
//
// Three engines compute the same stable outcome. Which one runs a leg is
// decided by the callers in core and measure from the scenario and the
// graph, never by a user-set option:
//
//   - Fast (fast.go): the full kernel — a three-phase algorithm over the
//     provider-customer DAG (customer routes in topological order, one
//     peer hop, provider routes in reverse topological order). It serves
//     the no-attacker baseline and every attacker kind: the paper's ASPP
//     interception (prepend stripping at the attacker and, optionally,
//     valley-free-violating export, via loop rejection on the attacker's
//     own path) and the two forged-claim hijacks it is contrasted with
//     (AttackOriginHijack, AttackNextHopInterception), where the attacker
//     is a second announcer that never adopts a route. Sibling links
//     (mutual transit, policy class preserved) cut across the DAG; the
//     kernel repeats its pass, seeded with the siblings' offers, until
//     they settle. Forged kinds and every leg on a sibling-bearing
//     topology run here, and so does cautious adoption (PropagateCautious:
//     deployers refuse under-prepended offers as an import filter). A
//     caller that reads a no-attacker table only at route monitors (the
//     usage survey, the churn corpus, path collection) says so with a
//     Vantage, and the last phase emits the monitors' provider cone
//     instead of every row.
//   - Delta (delta.go): the same ASPP attack as an incremental
//     recomputation of the attacker's cone against a memoized baseline.
//     ASPP legs run here whenever the topology is sibling-free.
//   - Reference (reference.go): a message-level BGP simulation with
//     per-neighbor Adj-RIB-In state, implicit withdrawals and full AS-path
//     loop detection: the test oracle the others are property-tested
//     against, and bench's timing baseline. No program leg runs it.
//
// All engines use the identical total preference order
// (class, path length, lowest next-hop ASN), so results are deterministic
// and directly comparable. The stable outcome is unique except where a
// stripping attacker meets sibling links, or cautious adoption ranks a
// normal route above the class; PropagateAttackScratch and
// PropagateCautious document which one the kernel returns there.
package routing

import (
	"errors"
	"fmt"
	"math"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// Class is the policy class of the neighbor a route was learned from.
type Class uint8

const (
	// ClassNone marks an AS with no route (or the origin itself).
	ClassNone Class = iota
	// ClassCustomer: learned from a customer — most preferred (revenue).
	ClassCustomer
	// ClassPeer: learned from a settlement-free peer.
	ClassPeer
	// ClassProvider: learned from a provider — least preferred (cost).
	ClassProvider
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassCustomer:
		return "customer"
	case ClassPeer:
		return "peer"
	case ClassProvider:
		return "provider"
	default:
		return "none"
	}
}

// Announcement describes the victim/origin's advertisement of one prefix.
type Announcement struct {
	// Origin is the AS originating the prefix.
	Origin bgp.ASN
	// Prepend λ is how many copies of its own ASN the origin sends to
	// every neighbor (1 = no artificial prepending). Minimum 1, at most
	// math.MaxInt16 (a route's Prep is an int16).
	Prepend int
	// PerNeighbor optionally overrides λ for specific neighbors, modeling
	// the traffic-engineering practice of padding backup upstreams more
	// than primaries. λ 0 announces nothing to that neighbor at all — a
	// failed session or a selective announcement; the churn simulation
	// uses it to fail an origin's primary upstream link. Values lie in
	// [0, math.MaxInt16].
	PerNeighbor map[bgp.ASN]int
}

// lambdaFor returns λ toward a given neighbor, 0 if it hears nothing.
func (a Announcement) lambdaFor(n bgp.ASN) int {
	if v, ok := a.PerNeighbor[n]; ok {
		return v
	}
	return a.Prepend
}

// seed is the origin's announcement to neighbor nbr (origin and nbr are
// dense indices): λ copies of its ASN, per neighbor, or nothing at λ 0.
// The full kernel and the delta engine both seed through it; the
// reference engine, the oracle, states it itself.
func (a Announcement) seed(g *topology.Graph, origin, nbr int32) (cand, bool) {
	lam := int32(a.lambdaFor(g.ASNAt(nbr)))
	return cand{len: lam, prep: int16(lam), parent: origin}, lam > 0
}

// Validate checks the announcement against a topology.
func (a Announcement) Validate(g *topology.Graph) error {
	if !g.Has(a.Origin) {
		return fmt.Errorf("routing: origin %v not in topology", a.Origin)
	}
	if a.Prepend < 1 || a.Prepend > math.MaxInt16 {
		return fmt.Errorf("routing: prepend %d outside [1, %d]", a.Prepend, math.MaxInt16)
	}
	for n, v := range a.PerNeighbor {
		if g.RelOf(a.Origin, n) == topology.RelNone {
			return fmt.Errorf("routing: per-neighbor prepend for non-neighbor %v", n)
		}
		if v < 0 || v > math.MaxInt16 {
			return fmt.Errorf("routing: per-neighbor prepend %d outside [0, %d] for %v", v, math.MaxInt16, n)
		}
	}
	return nil
}

// AttackKind is the claim an attacker makes for the victim's prefix: the
// paper's ASPP interception, or one of the two classic hijacks it is
// contrasted with (§II.B).
type AttackKind uint8

const (
	// AttackASPP (the zero value) is the paper's attack: re-export the
	// received route with the victim's prepends stripped. No false origin,
	// no fabricated link.
	AttackASPP AttackKind = iota
	// AttackOriginHijack: the attacker announces the prefix as its own
	// ([M]). Blackholes traffic; trips MOAS detectors.
	AttackOriginHijack
	// AttackNextHopInterception (Ballani et al.): the attacker announces
	// [M V], keeping the true origin but fabricating the M–V adjacency.
	// Intercepts traffic; trips topology-anomaly detectors.
	AttackNextHopInterception
)

// String names the attack kind.
func (k AttackKind) String() string {
	switch k {
	case AttackASPP:
		return "aspp-interception"
	case AttackOriginHijack:
		return "origin-hijack"
	case AttackNextHopInterception:
		return "next-hop-interception"
	default:
		return fmt.Sprintf("AttackKind(%d)", uint8(k))
	}
}

// Attacker configures the attacking AS. Under AttackASPP it re-exports its
// route toward the origin with prepended origin copies removed down to
// KeepPrepend (the paper's [M * V...V] -> [M * V] rewrite). Under the
// forged kinds it originates its claim itself: it never adopts a route
// for the prefix, announces the claim to every neighbor, and needs no
// route to the origin; KeepPrepend and ViolateValleyFree do not apply.
type Attacker struct {
	// AS is the attacking autonomous system.
	AS bgp.ASN
	// Kind is the claim the attacker makes (zero value: AttackASPP).
	Kind AttackKind
	// KeepPrepend is how many origin copies survive stripping (>= 1, at
	// most math.MaxInt16; 0 means 1). The paper's attacker keeps exactly
	// one.
	KeepPrepend int
	// ViolateValleyFree, when true, makes the attacker export its best
	// route to all neighbors regardless of the route's class — the
	// paper's Figs. 11-12 "violate routing policy" attacker.
	ViolateValleyFree bool
}

// Validate checks the attacker against a topology and announcement.
func (atk Attacker) Validate(g *topology.Graph, ann Announcement) error {
	if !g.Has(atk.AS) {
		return fmt.Errorf("routing: attacker %v not in topology", atk.AS)
	}
	if atk.AS == ann.Origin {
		return errors.New("routing: attacker cannot be the origin")
	}
	if atk.Kind > AttackNextHopInterception {
		return fmt.Errorf("routing: unknown attack kind %d", atk.Kind)
	}
	if atk.KeepPrepend < 0 || atk.KeepPrepend > math.MaxInt16 {
		return fmt.Errorf("routing: KeepPrepend %d outside [0, %d]", atk.KeepPrepend, math.MaxInt16)
	}
	return nil
}

func (atk Attacker) keep() int16 {
	if atk.KeepPrepend < 1 {
		return 1
	}
	return int16(atk.KeepPrepend)
}

// errNeedsStrip is returned by the engines that model only the
// prepend-stripping attacker when handed a forged claim.
var errNeedsStrip = errors.New("routing: this engine serves AttackASPP only; forged claims run PropagateAttackScratch")

// ErrUnreachableAttacker is returned by PropagateAttackScratch when the attacker
// has no route to the origin and therefore nothing to strip — the skippable
// class of the sweep error contract (DESIGN §6): a property of the drawn
// scenario, which drivers redraw, not a failure of the machinery.
var ErrUnreachableAttacker = errors.New("routing: attacker has no route to origin")
