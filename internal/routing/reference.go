package routing

import (
	"errors"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// This file implements the Reference engine: a faithful message-level BGP
// simulation. Every AS keeps an Adj-RIB-In entry per neighbor, re-runs the
// decision process when an entry changes (including implicit withdrawals
// when a neighbor's new advertisement replaces its old one), applies
// AS-path loop rejection against full explicit paths, and exports per
// valley-free rules (with the attacker's strip and optional violation).
//
// Under the Gao-Rexford preference conditions (customer > peer > provider,
// acyclic provider hierarchy) this process converges to a unique stable
// state regardless of message ordering, which makes it the ground truth
// the Fast engine is property-tested against. No program leg runs it: it is
// the tests' oracle, and bench times it against the kernel.

// refRoute is an Adj-RIB-In entry.
type refRoute struct {
	path  bgp.Path
	class Class
}

type refNode struct {
	ribIn map[int32]refRoute // by neighbor index
	best  refRoute
	from  int32 // neighbor of best, -1 if none
}

type refEngine struct {
	g      *topology.Graph
	origin int32
	ann    Announcement

	hasAtk  bool
	atkIdx  int32
	keep    int
	violate bool

	// noAdopt marks ASes that never adopt a route for the prefix: the
	// announcers of the multi-announcer oracle the forged attack kinds are
	// tested against (seeds_test.go). Nil in every non-test propagation.
	noAdopt map[int32]bool

	nodes []refNode
	queue []int32 // ASes whose selection changed and must re-export
	inQ   []bool
}

// PropagateReference computes the stable outcome using the message-level
// engine. atk may be nil for a plain propagation. Unlike PropagateAttackScratch it
// does not need a baseline: the attacker's behavior emerges from message
// processing. An unreachable attacker degrades to a no-op (matching BGP).
func PropagateReference(g *topology.Graph, ann Announcement, atk *Attacker) (*Result, error) {
	e, err := newRefEngine(g, ann, atk)
	if err != nil {
		return nil, err
	}
	e.announce()
	if err := e.drain(); err != nil {
		return nil, err
	}
	return e.finish(), nil
}

// newRefEngine validates the inputs and returns an engine in which nobody
// has announced anything yet.
func newRefEngine(g *topology.Graph, ann Announcement, atk *Attacker) (*refEngine, error) {
	if err := ann.Validate(g); err != nil {
		return nil, err
	}
	e := &refEngine{
		g:      g,
		ann:    ann,
		nodes:  make([]refNode, g.NumASes()),
		inQ:    make([]bool, g.NumASes()),
		atkIdx: -1,
	}
	origin, _ := g.Index(ann.Origin)
	e.origin = origin
	if atk != nil {
		if err := atk.Validate(g, ann); err != nil {
			return nil, err
		}
		if atk.Kind != AttackASPP {
			return nil, errNeedsStrip
		}
		e.hasAtk = true
		e.atkIdx, _ = g.Index(atk.AS)
		e.keep = int(atk.keep())
		e.violate = atk.ViolateValleyFree
	}
	for i := range e.nodes {
		e.nodes[i].ribIn = make(map[int32]refRoute)
		e.nodes[i].from = -1
	}
	return e, nil
}

// announce sends the origin's announcement to all its neighbors (except
// those at λ 0).
func (e *refEngine) announce() {
	g, ann, origin := e.g, e.ann, e.origin
	originASN := g.ASNAt(origin)
	announce := func(nbr int32, class Class) {
		lam := ann.lambdaFor(g.ASNAt(nbr))
		if lam == 0 {
			return
		}
		path := make(bgp.Path, lam)
		for i := range path {
			path[i] = originASN
		}
		e.receive(nbr, origin, refRoute{path: path, class: class})
	}
	for _, p := range g.ProvidersIdx(origin) {
		announce(p, ClassCustomer)
	}
	for _, w := range g.PeersIdx(origin) {
		announce(w, ClassPeer)
	}
	for _, c := range g.CustomersIdx(origin) {
		announce(c, ClassProvider)
	}
	// A sibling shares the organization: it treats the origin's own
	// prefix like a customer route and re-exports it everywhere.
	for _, s := range g.SiblingsIdx(origin) {
		announce(s, ClassCustomer)
	}
}

// drain processes queued re-exports until no selection changes.
//
// Gao-Rexford-compliant policies are guaranteed to converge; the
// violating attacker adds a fixed extra announcement, which preserves
// convergence. The budget is a defensive backstop against protocol
// bugs, far above any legitimate activation count.
func (e *refEngine) drain() error {
	budget := 1000 * (e.g.NumASes() + 16)
	for len(e.queue) > 0 {
		if budget--; budget < 0 {
			return errOscillation
		}
		u := e.queue[0]
		e.queue = e.queue[1:]
		e.inQ[u] = false
		e.exportFrom(u)
	}
	return nil
}

// receive installs a new Adj-RIB-In entry at node i from neighbor nbr
// (replacing any previous advertisement — an implicit withdrawal), re-runs
// the decision process, and queues i for re-export if its selection
// changed.
func (e *refEngine) receive(i, nbr int32, r refRoute) {
	if i == e.origin || e.noAdopt[i] {
		return
	}
	if r.path.Contains(e.g.ASNAt(i)) {
		// Loop rejection also removes any previous usable route from this
		// neighbor: the neighbor has switched to a looping path, so its
		// old advertisement is implicitly withdrawn.
		delete(e.nodes[i].ribIn, nbr)
	} else {
		e.nodes[i].ribIn[nbr] = r
	}
	e.decide(i)
}

// prefer reports whether route a (from neighbor na) beats b (from nb).
func (e *refEngine) prefer(a refRoute, na int32, b refRoute, nb int32) bool {
	if b.path == nil {
		return true
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if len(a.path) != len(b.path) {
		return len(a.path) < len(b.path)
	}
	return e.g.ASNAt(na) < e.g.ASNAt(nb)
}

// decide re-runs best-route selection at node i.
func (e *refEngine) decide(i int32) {
	n := &e.nodes[i]
	var best refRoute
	from := int32(-1)
	for nbr, r := range n.ribIn {
		if from == -1 || e.prefer(r, nbr, best, from) {
			best, from = r, nbr
		}
	}
	if from == n.from && best.path.Equal(n.best.path) && best.class == n.best.class {
		return
	}
	n.best, n.from = best, from
	if !e.inQ[i] {
		e.inQ[i] = true
		e.queue = append(e.queue, i)
	}
}

// exportFrom advertises node u's current best route to every neighbor the
// policy allows (and withdraws from neighbors it no longer may export to).
func (e *refEngine) exportFrom(u int32) {
	n := &e.nodes[u]
	g := e.g

	var exportPath bgp.Path
	if n.best.path != nil {
		exportPath = n.best.path
		if e.hasAtk && u == e.atkIdx {
			exportPath = exportPath.StripOriginPrepend(e.keep)
		}
		exportPath = exportPath.Prepend(g.ASNAt(u), 1)
	}

	// toCustomers is always allowed; up/across only for customer routes
	// (or for the violating attacker).
	upAllowed := n.best.path != nil &&
		(n.best.class == ClassCustomer || (e.hasAtk && e.violate && u == e.atkIdx))

	send := func(nbr int32, class Class, allowed bool) {
		if allowed {
			e.receive(nbr, u, refRoute{path: exportPath, class: class})
			return
		}
		// Withdraw anything previously advertised on this session.
		if _, had := e.nodes[nbr].ribIn[u]; had {
			delete(e.nodes[nbr].ribIn, u)
			e.decide(nbr)
		}
	}
	for _, c := range g.CustomersIdx(u) {
		send(c, ClassProvider, n.best.path != nil)
	}
	for _, w := range g.PeersIdx(u) {
		send(w, ClassPeer, upAllowed)
	}
	for _, p := range g.ProvidersIdx(u) {
		send(p, ClassCustomer, upAllowed)
	}
	// Siblings receive everything with the policy class preserved, as if
	// the route had been learned by the organization as a whole.
	for _, s := range g.SiblingsIdx(u) {
		send(s, n.best.class, n.best.path != nil)
	}
}

// finish converts engine state into a Result.
func (e *refEngine) finish() *Result {
	res := newResult(e.g, e.origin)
	for i := range e.nodes {
		n := &e.nodes[i]
		if i == int(e.origin) || n.best.path == nil {
			continue
		}
		res.Class[i] = n.best.class
		res.Len[i] = int32(len(n.best.path))
		res.Prep[i] = int16(n.best.path.OriginPrepend())
		res.Parent[i] = n.from
	}
	if e.hasAtk {
		res.Via = make([]bool, e.g.NumASes())
		atkASN := e.g.ASNAt(e.atkIdx)
		for i := range e.nodes {
			if int32(i) == e.origin || int32(i) == e.atkIdx {
				continue
			}
			if e.nodes[i].best.path != nil && e.nodes[i].best.path.Contains(atkASN) {
				res.Via[i] = true
			}
		}
	}
	return res
}

// errOscillation reports that message processing exceeded its budget,
// which indicates a policy-model bug (GR-compliant policies converge).
var errOscillation = errors.New("routing: reference engine did not converge")
