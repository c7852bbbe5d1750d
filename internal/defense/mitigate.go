package defense

import (
	"errors"
	"fmt"
	"maps"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// Mitigation is a victim's reactive response after detecting an
// interception.
type Mitigation uint8

const (
	// MitigateUnprepend: the victim stops padding entirely (λ=1
	// everywhere). The attacker has nothing left to strip: the bogus
	// route loses its length advantage, at the cost of abandoning the
	// traffic engineering the padding implemented.
	MitigateUnprepend Mitigation = iota + 1
	// MitigateWithhold: the victim withdraws its announcement from the
	// branch the bogus route enters through (its own neighbor on the
	// attacker's path), cutting the attacker off — and sacrificing that
	// backup path entirely.
	MitigateWithhold
)

// String names the mitigation.
func (m Mitigation) String() string {
	switch m {
	case MitigateUnprepend:
		return "unprepend"
	case MitigateWithhold:
		return "withhold"
	default:
		return fmt.Sprintf("Mitigation(%d)", uint8(m))
	}
}

// MitigationOutcome quantifies a response's effect.
type MitigationOutcome struct {
	Mitigation Mitigation
	// DuringAttack is the polluted fraction before the response.
	DuringAttack float64
	// AfterResponse is the polluted fraction once the victim reacts (the
	// attacker keeps stripping whatever it still receives).
	AfterResponse float64
	// ReachableDuring/ReachableAfter count ASes with a route to the
	// victim before and after the response: withholding can orphan
	// branches, unprepending never does.
	ReachableDuring, ReachableAfter int
}

// Mitigate simulates the victim's response to an ongoing attack.
func Mitigate(g *topology.Graph, sc core.Scenario, m Mitigation) (*MitigationOutcome, error) {
	during, err := core.Simulate(g, sc)
	if err != nil {
		return nil, fmt.Errorf("defense: attack: %w", err)
	}
	outcome := &MitigationOutcome{
		Mitigation:      m,
		DuringAttack:    during.After(),
		ReachableDuring: during.Attacked().ReachableCount(),
	}

	response := sc
	switch m {
	case MitigateUnprepend:
		// λ 1 everywhere the victim announces; a withheld (λ 0) session
		// stays withheld.
		response.Prepend = 1
		response.PerNeighborPrepend = maps.Clone(sc.PerNeighborPrepend)
		maps.DeleteFunc(response.PerNeighborPrepend, func(_ bgp.ASN, lam int) bool { return lam != 0 })
	case MitigateWithhold:
		entry := entryNeighbor(during)
		if entry == 0 {
			return nil, errors.New("defense: cannot locate the bogus route's entry neighbor")
		}
		pn := make(map[bgp.ASN]int, len(sc.PerNeighborPrepend)+1)
		maps.Copy(pn, sc.PerNeighborPrepend)
		pn[entry] = 0
		response.PerNeighborPrepend = pn
	default:
		return nil, fmt.Errorf("defense: unknown mitigation %d", m)
	}

	after, err := core.Simulate(g, response)
	switch {
	case err == nil:
		outcome.AfterResponse = after.After()
		outcome.ReachableAfter = after.Attacked().ReachableCount()
	case errors.Is(err, core.ErrAttackerSeesNoRoute):
		// The response cut the attacker off entirely: nothing is polluted.
		base, berr := routing.Propagate(g, response.Announcement())
		if berr != nil {
			return nil, fmt.Errorf("defense: response baseline: %w", berr)
		}
		outcome.ReachableAfter = base.ReachableCount()
	default:
		return nil, fmt.Errorf("defense: response: %w", err)
	}
	return outcome, nil
}

// entryNeighbor returns the victim-adjacent AS on the attacker's own
// route — where the to-be-stripped announcement enters the attacker's
// branch. If the attacker is the victim's direct neighbor, that is the
// attacker itself.
func entryNeighbor(im *core.Impact) bgp.ASN {
	path := im.Baseline().PathOf(im.Scenario.Attacker)
	tr := path.Unique()
	if len(tr) < 2 {
		// Path is just the origin run: the attacker is adjacent.
		return im.Scenario.Attacker
	}
	return tr[len(tr)-2] // the element just above the origin
}
