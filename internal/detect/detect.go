// Package detect implements the paper's ASPP-interception detection
// algorithm (Fig. 4): collaborative monitoring from multiple vantage
// points, searching for inconsistent prepend counts across routes that
// share the AS-path segment adjacent to the origin.
//
// The key observation: following the same AS path, an AS cannot receive
// two routes with two different numbers of origin prepends — the origin
// applies one consistent policy per neighbor. When the segment below some
// AS matches across two monitors' routes but the prepend counts differ,
// the AS just above the segment in the shorter route must have removed
// prepends: a high-confidence alarm. When no direct segment conflict
// exists, relationship-based hints (the pseudocode's else branch) raise
// lower-confidence alarms, at the cost of false positives.
package detect

import (
	"fmt"

	"aspp/internal/bgp"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// Confidence grades an alarm.
type Confidence uint8

const (
	// High: a direct segment conflict was observed (the pseudocode's
	// "detect attack!" branch).
	High Confidence = iota + 1
	// Possible: only relationship-based hints support the alarm; the
	// inferred AS relationships may be inaccurate.
	Possible
)

// String names the confidence level.
func (c Confidence) String() string {
	switch c {
	case High:
		return "high"
	case Possible:
		return "possible"
	default:
		return fmt.Sprintf("Confidence(%d)", uint8(c))
	}
}

// Alarm is one detection event.
type Alarm struct {
	// Confidence grades the evidence.
	Confidence Confidence
	// Suspect is the AS accused of removing prepended ASNs. The evidence
	// localizes the removal to the suspect or an AS above it on the
	// monitor's path: the suspect is the AS immediately above the longest
	// path segment this witness confirms. A witness routing through more
	// of the monitor's path pins the suspect more precisely.
	Suspect bgp.ASN
	// Monitor is the vantage point whose route change triggered detection.
	Monitor bgp.ASN
	// Witness is the vantage point whose conflicting route provided the
	// evidence.
	Witness bgp.ASN
	// RemovedPads is the number of origin copies the suspect removed
	// (high confidence only; 0 otherwise).
	RemovedPads int
}

// String renders the alarm for logs.
func (a Alarm) String() string {
	if a.Confidence == High {
		return fmt.Sprintf("ALARM[high] %v removed %d prepended ASN(s) (monitor %v, witness %v)",
			a.Suspect, a.RemovedPads, a.Monitor, a.Witness)
	}
	return fmt.Sprintf("ALARM[possible] %v may have removed prepended ASNs (monitor %v, witness %v)",
		a.Suspect, a.Monitor, a.Witness)
}

// RelQuerier answers AS-relationship questions; *topology.Graph implements
// it with ground truth, and relinfer's inferred graphs implement it with
// measured relationships (the realistic deployment).
type RelQuerier interface {
	RelOf(a, b bgp.ASN) topology.RelTo
}

// MonitorRoute is one vantage point's current route for the watched prefix.
type MonitorRoute struct {
	Monitor bgp.ASN
	Path    bgp.Path
}

// hasPeerStep reports whether any adjacent pair along chain is a peer link
// (used by the pseudocode's "no peer links in r_t^d" hint condition).
func hasPeerStep(chain bgp.Path, origin bgp.ASN, rels RelQuerier) bool {
	prev := origin
	for i := len(chain) - 1; i >= 0; i-- {
		if rels.RelOf(prev, chain[i]) == topology.RelPeer {
			return true
		}
		prev = chain[i]
	}
	return false
}

// triggers is the rule's trigger: the monitor had a route and has one, from
// the same origin (an ownership change is MOAS, a different attack class),
// and the padded number decreased. A monitor that does not trigger raises no
// alarm against any witness.
func triggers(was, cur routing.PathSpan) bool {
	return was.Prep != 0 && cur.Prep != 0 && was.Origin == cur.Origin && cur.Prep < was.Prep
}

// sink takes detectRow's alarms. Unless fold is set it appends each to out,
// as the streaming Detector returns them. The batch fold sets fold and reads
// three verdict flags instead: any alarm, any High, and any whose suspect is
// attacker. A flag may be set beforehand when the fold needs no more of it;
// the row ends once all three hold.
type sink struct {
	out             []Alarm
	fold            bool
	attacker        bgp.ASN
	any, high, attr bool
}

// put takes one alarm and reports whether the row may end.
func (s *sink) put(a Alarm) bool {
	if !s.fold {
		s.out = append(s.out, a)
		return false
	}
	s.any, s.high = true, s.high || a.Confidence == High
	s.attr = s.attr || a.Suspect == s.attacker
	return s.high && s.attr
}

// wantHint reports whether a Possible alarm naming suspect could still
// change what s holds; the hint rules, which ask rels, run only then.
func (s *sink) wantHint(suspect bgp.ASN) bool {
	return !s.fold || !s.any || !s.attr && suspect == s.attacker
}

// detectRow is the Fig. 4 rule, stated once for every entry point. row is
// one prefix's table row: per vantage point in mons, the id of its current
// route, which is spans[row[k]] (the empty span is "no route"), all spans
// of arena a. spans[row[mi]] is the route monitor mons[mi] just installed
// in place of was, of which only Prep and Origin are read. Transit chains
// are the interned segments, so two routes with the same Seg share theirs
// without comparing. Alarms go to s, in row order. Whether the trigger's
// chain climbs a peer link depends on the trigger alone, so it is asked at
// most once per call.
func detectRow(a *routing.PathArena, mons []bgp.ASN, row []int32, spans []routing.PathSpan, mi int, was routing.PathSpan, rels RelQuerier, s *sink) {
	monitor, cur := mons[mi], spans[row[mi]]
	if !triggers(was, cur) {
		return
	}
	lambdaT := int(cur.Prep)

	curT := bgp.Path(a.SegBody(cur.Seg))
	peerKnown, peerStep := false, false
	for k, id := range row {
		w := spans[id]
		if mons[k] == monitor || w.Prep == 0 || w.Origin != cur.Origin {
			continue
		}
		lambdaL := int(w.Prep)
		if lambdaT >= lambdaL {
			continue // witness shows no extra padding: consistent
		}
		witT := bgp.Path(a.SegBody(w.Seg))

		// Direct symptom: the two routes share the chain adjacent to the
		// origin, so the origin's neighbor received both — with different
		// padding. Impossible under consistent per-neighbor policy.
		// Identical interned segments short-circuit the suffix compare.
		m := len(curT)
		if cur.Seg != w.Seg {
			m = curT.CommonSuffixLen(witT)
		}
		if m >= 1 {
			suspect := monitor
			if m < len(curT) {
				suspect = curT[len(curT)-1-m]
			}
			if s.put(Alarm{
				Confidence:  High,
				Suspect:     suspect,
				Monitor:     monitor,
				Witness:     mons[k],
				RemovedPads: lambdaL - lambdaT,
			}) {
				return
			}
			continue
		}

		// No direct symptom: search for hints (lower confidence). The
		// witness's next hop selected a longer padded route even though
		// local policy says it should have learned the shorter one.
		if rels == nil || len(curT) < 2 || len(witT) < 1 || !s.wantHint(curT[0]) {
			continue
		}
		if len(witT)+lambdaL <= len(curT)+lambdaT {
			continue // witness route not actually longer end-to-end
		}
		asI := curT[0]   // top of the changed route
		asIm1 := curT[1] // the AS below it
		asL := witT[0]   // top of the witness route
		var asLm1 bgp.ASN
		if len(witT) >= 2 {
			asLm1 = witT[1]
		}
		hint := false
		switch rels.RelOf(asIm1, asL) {
		case topology.RelProvider:
			// asL is asIm1's provider: customers export everything up,
			// so asL should have heard the shorter route.
			hint = true
		case topology.RelPeer:
			// Peers hear customer routes; if the monitor's route climbed
			// only customer-provider links, asIm1 could export it to asL.
			if !peerKnown {
				peerKnown, peerStep = true, hasPeerStep(curT, cur.Origin, rels)
			}
			hint = !peerStep
		case topology.RelCustomer:
			// asL is asIm1's customer and itself chose a provider route:
			// providers export everything down, so asL should have heard
			// the shorter route from asIm1.
			hint = asLm1 != 0 && rels.RelOf(asL, asLm1) == topology.RelProvider
		}
		if hint && s.put(Alarm{
			Confidence: Possible,
			Suspect:    asI,
			Monitor:    monitor,
			Witness:    mons[k],
		}) {
			return
		}
	}
}
