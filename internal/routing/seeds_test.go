package routing

import (
	"errors"
	"fmt"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// This file is the test-side oracle for the forged attack kinds: several
// ASes announcing one prefix with explicit AS-paths, run on the
// message-level refEngine. The Fast engine's AttackOriginHijack and
// AttackNextHopInterception are differentially tested against it
// (forged_test.go); no non-test code calls it.

// Seed is one AS's announcement of the watched prefix, with the AS-path
// it claims. Honest origination claims [AS × λ]; the classic hijacks the
// paper contrasts with (§II.B) claim forged paths:
//
//   - origin hijack (MOAS): the attacker claims [M] — it owns the prefix;
//   - invalid-next-hop interception: the attacker claims [M V], keeping
//     the true origin but fabricating an adjacency to it.
type Seed struct {
	// AS is the announcing autonomous system.
	AS bgp.ASN
	// Path is the AS-path the announcement carries, already including the
	// announcer's own ASN at the front.
	Path bgp.Path
}

// Validate checks the seed against a topology.
func (s Seed) Validate(g *topology.Graph) error {
	if !g.Has(s.AS) {
		return fmt.Errorf("routing: seed AS %v not in topology", s.AS)
	}
	if len(s.Path) == 0 {
		return errors.New("routing: empty seed path")
	}
	if s.Path[0] != s.AS {
		return fmt.Errorf("routing: seed path %v must start with the announcer %v", s.Path, s.AS)
	}
	return nil
}

// seedRoutes is the stable outcome of PropagateSeeds: per AS (dense
// index), the chosen path (nil if none, or for an announcer) and its
// policy class. Paths are explicit because with several announcers a
// parent chain alone does not say whose tail it ends in.
type seedRoutes struct {
	g     *topology.Graph
	Paths []bgp.Path
	Class []Class
}

// PathOf returns asn's chosen path (nil if it has none or is a seeder).
func (m *seedRoutes) PathOf(asn bgp.ASN) bgp.Path {
	i, ok := m.g.Index(asn)
	if !ok {
		return nil
	}
	return m.Paths[i]
}

// PropagateSeeds runs the message-level engine with several announcements
// of the same prefix competing under standard valley-free policy. Seeding
// ASes never adopt a competing route for the prefix (an origin hijacker
// believes — or pretends — the prefix is its own; an honest origin has no
// use for another's route to itself).
func PropagateSeeds(g *topology.Graph, seeds []Seed) (*seedRoutes, error) {
	if len(seeds) == 0 {
		return nil, errors.New("routing: no seeds")
	}
	e := &refEngine{
		g:      g,
		nodes:  make([]refNode, g.NumASes()),
		inQ:    make([]bool, g.NumASes()),
		atkIdx: -1,
		origin: -1,
	}
	for i := range e.nodes {
		e.nodes[i].ribIn = make(map[int32]refRoute)
		e.nodes[i].from = -1
	}
	e.noAdopt = make(map[int32]bool, len(seeds))
	for _, s := range seeds {
		if err := s.Validate(g); err != nil {
			return nil, err
		}
		idx, _ := g.Index(s.AS)
		e.noAdopt[idx] = true
	}
	for _, s := range seeds {
		idx, _ := g.Index(s.AS)
		body := s.Path // already includes the announcer
		send := func(nbr int32, class Class) {
			e.receive(nbr, idx, refRoute{path: body.Clone(), class: class})
		}
		for _, p := range g.ProvidersIdx(idx) {
			send(p, ClassCustomer)
		}
		for _, w := range g.PeersIdx(idx) {
			send(w, ClassPeer)
		}
		for _, c := range g.CustomersIdx(idx) {
			send(c, ClassProvider)
		}
		for _, sib := range g.SiblingsIdx(idx) {
			send(sib, ClassCustomer)
		}
	}

	if err := e.drain(); err != nil {
		return nil, err
	}

	out := &seedRoutes{
		g:     g,
		Paths: make([]bgp.Path, g.NumASes()),
		Class: make([]Class, g.NumASes()),
	}
	for i := range e.nodes {
		if e.nodes[i].best.path != nil {
			out.Paths[i] = e.nodes[i].best.path
			out.Class[i] = e.nodes[i].best.class
		}
	}
	return out, nil
}
