package serve

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"

	"aspp/internal/bgp"
	"aspp/internal/detect"
)

// Incident aggregates the alarms one suspected interception produces
// across monitors — the report a PHAS-style notification system sends the
// prefix owner, rather than a raw alarm feed.
type Incident struct {
	Prefix netip.Prefix
	// Suspects are the accused ASes with their alarm counts; real
	// interceptions converge on the attacker (or a small above-set).
	Suspects map[bgp.ASN]int
	// Alarms is the total alarm count; HighAlarms counts segment
	// conflicts.
	Alarms, HighAlarms int
	// Monitors that contributed at least one alarm.
	Monitors map[bgp.ASN]bool
}

// PrimeSuspect returns the most-accused AS (ties to the lowest ASN).
func (inc *Incident) PrimeSuspect() bgp.ASN {
	var best bgp.ASN
	bestN := -1
	for asn, n := range inc.Suspects {
		if n > bestN || (n == bestN && asn < best) {
			best, bestN = asn, n
		}
	}
	return best
}

// String renders a one-line summary.
func (inc *Incident) String() string {
	return fmt.Sprintf("incident %v: %d alarms (%d high) from %d monitors, prime suspect %v",
		inc.Prefix, inc.Alarms, inc.HighAlarms, len(inc.Monitors), inc.PrimeSuspect())
}

// IncidentTracker folds alarm-feed events into one incident per prefix.
type IncidentTracker struct {
	open map[netip.Prefix]*Incident
}

// NewIncidentTracker returns an empty tracker.
func NewIncidentTracker() *IncidentTracker {
	return &IncidentTracker{open: make(map[netip.Prefix]*Incident)}
}

// Track adds one alarm event to its prefix's incident.
func (tr *IncidentTracker) Track(ev AlarmEvent) {
	inc := tr.open[ev.Prefix]
	if inc == nil {
		inc = &Incident{
			Prefix:   ev.Prefix,
			Suspects: make(map[bgp.ASN]int),
			Monitors: make(map[bgp.ASN]bool),
		}
		tr.open[ev.Prefix] = inc
	}
	inc.Alarms++
	if ev.Alarm.Confidence == detect.High {
		inc.HighAlarms++
	}
	inc.Suspects[ev.Alarm.Suspect]++
	inc.Monitors[ev.Alarm.Monitor] = true
}

// Open returns the incidents in ComparePrefixes order.
func (tr *IncidentTracker) Open() []*Incident {
	out := make([]*Incident, 0, len(tr.open))
	for _, inc := range tr.open {
		out = append(out, inc)
	}
	slices.SortFunc(out, func(a, b *Incident) int { return ComparePrefixes(a.Prefix, b.Prefix) })
	return out
}

// ComparePrefixes orders prefixes by address, then by length, so that
// 10.0.0.0/8 and 10.0.0.0/16 have an order too.
func ComparePrefixes(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits(), b.Bits())
}
