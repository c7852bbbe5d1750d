package routing

import (
	"errors"
	"math/bits"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// cand is one candidate route during relaxation.
type cand struct {
	len    int32 // received AS-path length incl. prepends; -1 = none
	parent int32 // neighbor the route was learned from
	prep   int16 // origin copies in the path
	via    bool  // path traverses the attacker
}

// expCand is a phase-3 export with the betterCand comparison key
// precomputed: key packs (received length, exporter ASN) so the provider
// sweep ranks an offer with one integer compare — no tie-break lookups
// into the ASN table. The all-ones key marks an empty entry and loses
// every comparison, folding the emptiness check into the same compare.
type expCand struct {
	key    uint64 // len<<32 | exporter ASN; ^0 = no export
	parent int32  // the exporter itself
	prep   int16
	via    bool
}

// noExport is the empty expCand key.
const noExport = ^uint64(0)

// route is the selected route an adopted export becomes.
func (e expCand) route() cand {
	return cand{len: int32(e.key >> 32), parent: e.parent, prep: e.prep, via: e.via}
}

// expKey packs a received length and the exporter's ASN into a
// comparison key ordered exactly as betterCand orders candidates:
// shorter first, then lowest exporter ASN.
func expKey(length int32, asn bgp.ASN) uint64 {
	return uint64(uint32(length))<<32 | uint64(uint32(asn))
}

// fastState carries one propagation over the Scratch's fused per-AS
// records (see nodeRec); fastState itself lives on the caller's stack.
// A record's candidate entries are live only when its gen stamp equals
// epoch — anything else reads as empty, which is what makes starting a
// propagation O(1).
type fastState struct {
	g      *topology.Graph
	s      *Scratch
	origin int32
	ann    Announcement

	recs   []nodeRec
	epoch  uint32
	reject []bool // packed loop-rejection marks, owned by the Scratch

	exps []expCand // per-AS final phase-3 exports (see Scratch.exps)

	uniform bool // no per-neighbor entry (see init)

	// custSet is a bitset over AS indices with a nonempty customer-table
	// entry — the phase-1/2 worklist. Customer routes reach only the
	// origin's provider ancestry, a small slice of the graph for most
	// origins, so driving the up/across phases off this set instead of a
	// full index scan skips the (majority) ASes with nothing to export.
	// peerSet is the same for peer-table entries; together they tell
	// phase 3 an AS's selection class in two bit probes, without reading
	// its (usually stale) record at all.
	custSet []uint64
	peerSet []uint64

	// attack state (atkIdx < 0 when no attacker)
	atkIdx int32
	keep   int16

	// forger is atkIdx when the attacker originates a forged claim
	// (AttackOriginHijack, AttackNextHopInterception) and -1 otherwise.
	// A forger is a second announcer: like the origin it never adopts a
	// route, and claim — the forged tail it pretends to hold, [] or [V] —
	// stands in for its route wherever it exports.
	forger int32
	claim  cand

	// upward, when seedUp is set, is the route the attacker exports to its
	// providers and peers before relaxation starts (see seedUpward).
	upward cand
	seedUp bool

	// Sibling state, nil on sibling-free graphs (see runSiblings). sibOff
	// holds the offer every AS currently makes to each of its siblings, one
	// entry per directed sibling adjacency in SiblingASes order. sibProv is
	// the best provider-class sibling offer each AS holds this pass; only
	// the entries of ASes with a sibling are ever written or read.
	sibOff  []sibOffer
	sibProv []expCand

	// rows, when non-nil, is the bitset of ASes whose result rows the caller
	// will read — a Vantage's provider closure — and phase 3 emits only those
	// (see downRows). Nil is every row; run clears it on a sibling graph.
	rows []uint64

	// quar, when non-nil, is each AS's quarantine threshold under cautious
	// adoption: the AS refuses any offer carrying fewer origin copies (see
	// PropagateCautious). Nil on every other call.
	quar []int16
}

// sibOffer is what an AS advertises to one sibling: its selected route as
// exported, with the policy class preserved — the organization learned the
// route as a whole. ClassNone means nothing is on offer.
type sibOffer struct {
	c   cand
	cls Class
}

// Propagate computes the stable routing outcome for ann with no attacker.
// Sweeps should prefer PropagateScratch, which reuses per-call state.
func Propagate(g *topology.Graph, ann Announcement) (*Result, error) {
	return propagateInto(g, ann, NewScratch(), new(Result), nil)
}

// ErrSiblingsNeedFullKernel reports that the incremental engine was handed
// a sibling-bearing topology. Sibling links are mutual transit: they cut
// across the provider DAG that engine walks once, so only the full kernel
// (PropagateScratch, PropagateAttackScratch), which
// repeats its pass until the sibling offers settle, routes them.
var ErrSiblingsNeedFullKernel = errors.New("routing: sibling links need the full kernel (PropagateScratch, PropagateAttackScratch)")

// ErrSiblingsUnsettled reports that the sibling offers were still changing
// after maxSiblingPasses passes: a route that crosses more sibling links
// than that, or offers that never settle (the reference engine's
// errOscillation).
var ErrSiblingsUnsettled = errors.New("routing: sibling offers did not settle")

// maxSiblingPasses bounds runSiblings. A pass settles every route that
// crosses one more sibling link than the pass before, so real
// organizations need a handful.
const maxSiblingPasses = 64

// init prepares st for a propagation on s's tables; each pass opens its
// own epoch (see begin).
func (st *fastState) init(g *topology.Graph, ann Announcement, s *Scratch) {
	n := g.NumASes()
	origin, _ := g.Index(ann.Origin)
	s.grow(n)
	st.g = g
	st.s = s
	s.rowsDown = 0
	st.origin = origin
	st.ann = ann
	st.atkIdx = -1
	st.forger = -1
	st.reject = s.reject[:n]
	st.exps = s.exps[:n]
	st.custSet = s.custSet[:(n+63)>>6]
	st.peerSet = s.peerSet[:(n+63)>>6]
	// A uniform announcement (no per-neighbor entry — the overwhelmingly
	// common case) pre-stores the origin's downward seed in exps[origin],
	// so phase 3 reads the origin like any other provider; otherwise each
	// origin edge computes its own seed (see seedToward).
	st.uniform = len(ann.PerNeighbor) == 0
	if st.uniform {
		lam := int32(ann.Prepend)
		st.exps[origin] = expCand{key: expKey(lam, ann.Origin), parent: origin, prep: int16(lam)}
	}
}

// begin opens a fresh epoch on the record table and empties the class
// bitsets: the state one pass starts from.
func (st *fastState) begin() {
	st.recs, st.epoch = st.s.beginPropagation(len(st.reject))
	for i := range st.custSet {
		st.custSet[i] = 0
		st.peerSet[i] = 0
	}
}

// betterCand reports whether a beats b under (length, lowest next-hop
// ASN). Class comparison happens structurally (separate entries). Shared
// by the Fast and Delta engines so their tie-breaks cannot drift apart.
func betterCand(g *topology.Graph, a, b cand) bool {
	if b.len < 0 {
		return true
	}
	if a.len != b.len {
		return a.len < b.len
	}
	return g.ASNAt(a.parent) < g.ASNAt(b.parent)
}

func (st *fastState) better(a, b cand) bool {
	return betterCand(st.g, a, b)
}

// admissible applies the receiver-side checks of an offer to AS at: an
// announcer (the origin, a forging attacker) never adopts a route for its
// own prefix, and a via-marked route already contains every AS on the
// attacker's own path (AS-path loop); a cautious deployer refuses an offer
// below its quarantine threshold.
func (st *fastState) admissible(at int32, c cand) bool {
	if at == st.origin || at == st.forger || (st.quar != nil && c.prep < st.quar[at]) {
		return false
	}
	return !c.via || (at != st.atkIdx && !st.reject[at])
}

// considerCust offers candidate c to at's customer-table entry, keeping
// the phase-1/2 worklist bitset in sync. The first offer a record sees in
// an epoch takes the stale-stamp fast path: the whole record is rewritten
// without reading its (invalid) entries — the epoch mechanism's write
// side. Every later offer finds gen current and compares normally.
func (st *fastState) considerCust(at int32, c cand) {
	if !st.admissible(at, c) {
		return
	}
	r := &st.recs[at]
	if r.gen != st.epoch {
		r.gen = st.epoch
		r.cust = c
		r.peer.len = -1
		st.custSet[at>>6] |= 1 << uint(at&63)
		return
	}
	if st.better(c, r.cust) {
		r.cust = c
		st.custSet[at>>6] |= 1 << uint(at&63)
	}
}

// considerPeer offers candidate c to at's peer-table entry.
func (st *fastState) considerPeer(at int32, c cand) {
	if !st.admissible(at, c) {
		return
	}
	r := &st.recs[at]
	if r.gen != st.epoch {
		r.gen = st.epoch
		r.peer = c
		r.cust.len = -1
		st.peerSet[at>>6] |= 1 << uint(at&63)
		return
	}
	if st.better(c, r.peer) {
		r.peer = c
		st.peerSet[at>>6] |= 1 << uint(at&63)
	}
}

// exportCand computes what AS u advertises given its route c: u prepends
// its own ASN once; the attacker (atkIdx) additionally strips origin
// prepends down to keep and via-marks the offer. Shared by the Fast and
// Delta engines.
func exportCand(u int32, c cand, atkIdx int32, keep int16) cand {
	out := cand{len: c.len + 1, prep: c.prep, via: c.via, parent: u}
	if u == atkIdx {
		if c.prep > keep {
			out.len -= int32(c.prep - keep)
			out.prep = keep
		}
		out.via = true
	}
	return out
}

func (st *fastState) export(u int32, c cand) cand {
	return exportCand(u, c, st.atkIdx, st.keep)
}

// exportKey is export with the phase-3 comparison key precomputed from
// the exporter's ASN, in expCand form. It restates exportCand by hand
// rather than calling export: phase 3 calls it once per transit row, and
// building the key off export's cand measured 3–10 % slower per 80k
// baseline (EXPERIMENTS.md, "Path statistics off the kernel").
func (st *fastState) exportKey(u int32, c cand) expCand {
	ln := c.len + 1
	prep := c.prep
	via := c.via
	if u == st.atkIdx {
		if prep > st.keep {
			ln -= int32(prep - st.keep)
			prep = st.keep
		}
		via = true
	}
	return expCand{key: expKey(ln, st.g.ASNAt(u)), parent: u, prep: prep, via: via}
}

// seedUpward injects the attacker's export of route c to its providers
// and peers before relaxation starts: the valley-free violation (c is its
// baseline route, which the attack cannot change, exported where policy
// would forbid a peer- or provider-learned route), or a forger's claim.
func (st *fastState) seedUpward(c cand) {
	a := st.atkIdx
	exp := st.export(a, c)
	for _, p := range st.g.ProvidersIdx(a) {
		st.considerCust(p, exp)
	}
	for _, w := range st.g.PeersIdx(a) {
		st.considerPeer(w, exp)
	}
}

// originSeed is the origin's announcement to neighbor nbr (see
// Announcement.seed).
func (st *fastState) originSeed(nbr int32) (cand, bool) {
	return st.ann.seed(st.g, st.origin, nbr)
}

// run computes the stable outcome into res (which must already be sized
// for the graph; rows need not be cleared — every row is written, or under
// st.rows every row the vantage reads). When via is non-nil it receives the
// per-AS via flags (the attack path's Via storage). A sibling-free graph is
// one pass.
func (st *fastState) run(res *Result, via []bool) (*Result, error) {
	if st.g.HasSiblings() {
		st.rows = nil // a sibling offer can carry a route into any row
		return st.runSiblings(res, via)
	}
	st.pass(res, via)
	return res, nil
}

// runSiblings routes a sibling-bearing graph. A sibling export preserves
// the policy class, so the customer / peer / provider strata of the three
// phases stay intact and a sibling's offer is one more seed into the
// matching table. The pass is repeated, each time seeded with the offers
// the previous pass's selections produce, until no offer changes: every
// AS then holds the best of its neighbors' current exports, a stable
// state. As an activation order this delivers sibling messages in rounds
// and lets the rest of the graph converge in between; under Gao-Rexford
// preferences every fair order reaches the same state (Chiesa et al.;
// PropagateAttackScratch notes the one exception). A re-announcing sibling
// replaces its earlier offer, as an Adj-RIB-In entry would be replaced:
// every pass rebuilds the tables from the current offers alone.
func (st *fastState) runSiblings(res *Result, via []bool) (*Result, error) {
	st.sibOff, st.sibProv = st.s.siblingTables(st.g)
	st.exchangeSiblings(nil, nil) // only the announcers have something to offer yet
	for i := 0; i < maxSiblingPasses; i++ {
		st.pass(res, via)
		if !st.exchangeSiblings(res, via) {
			return res, nil
		}
	}
	return nil, ErrSiblingsUnsettled
}

// siblingOffer is what u advertises to its sibling s given the selections
// in res (nil: nobody has selected yet). An announcer's sibling hears the
// prefix as a customer route and re-exports it everywhere. A route whose
// parent chain runs through s names s in its path, so s would loop-reject
// it: nothing is on offer. The walk is bounded, since between passes a chain
// may still close on itself through an offer a pass has since withdrawn;
// without it, such a loop would count to infinity once the route it grew
// from is gone, which cautious adoption's filter can bring about.
func (st *fastState) siblingOffer(u, s int32, res *Result, via []bool) sibOffer {
	switch {
	case u == st.origin:
		c, ok := st.originSeed(s)
		if !ok {
			return sibOffer{}
		}
		return sibOffer{c: c, cls: ClassCustomer}
	case u == st.forger:
		return sibOffer{c: st.export(u, st.claim), cls: ClassCustomer}
	case res == nil || res.Class[u] == ClassNone:
		return sibOffer{}
	}
	for j, hops := res.Parent[u], 0; j != st.origin; j, hops = res.Parent[j], hops+1 {
		if j == s || j < 0 || hops == len(res.Parent) {
			return sibOffer{}
		}
	}
	c := cand{len: res.Len[u], prep: res.Prep[u], parent: res.Parent[u], via: via != nil && via[u]}
	return sibOffer{c: st.export(u, c), cls: res.Class[u]}
}

// exchangeSiblings replaces every sibling offer with the one res's
// selections produce and reports whether any changed.
func (st *fastState) exchangeSiblings(res *Result, via []bool) bool {
	changed := false
	k := 0
	for _, u := range st.g.SiblingASes() {
		for _, s := range st.g.SiblingsIdx(u) {
			off := st.siblingOffer(u, s, res, via)
			if off != st.sibOff[k] {
				st.sibOff[k] = off
				changed = true
			}
			k++
		}
	}
	return changed
}

// seedSiblings enters the current sibling offers into the receivers'
// tables by class. Customer and peer offers are ordinary table entries;
// provider offers wait in sibProv, keyed like any provider's export, for
// phase 3 to reach the receiver (see adoptSiblingProvider).
func (st *fastState) seedSiblings() {
	for _, u := range st.g.SiblingASes() {
		st.sibProv[u].key = noExport
	}
	k := 0
	for _, u := range st.g.SiblingASes() {
		for _, s := range st.g.SiblingsIdx(u) {
			off := st.sibOff[k]
			k++
			switch off.cls {
			case ClassCustomer:
				st.considerCust(s, off.c)
			case ClassPeer:
				st.considerPeer(s, off.c)
			case ClassProvider:
				if !st.admissible(s, off.c) {
					continue
				}
				if key := expKey(off.c.len, st.g.ASNAt(u)); key < st.sibProv[s].key {
					st.sibProv[s] = expCand{key: key, parent: u, prep: off.c.prep, via: off.c.via}
				}
			}
		}
	}
}

// pass executes the three phases once, from a fresh epoch, and writes the
// outcome into res and via.
//
// Dense AS indices are up-topological (a topology.Graph build invariant),
// so the DAG phases need no permutation table: the worklist walk processes
// ascending indices and phase 3 is a plain descending scan. Phase 3 is
// pull-based: when the scan reaches u every provider of u (higher index)
// already has its final export in exps, so u computes its provider entry
// in a register sweep over those instead of providers pushing offers into
// a shared table — no record writes, and ASes whose customer or peer
// route wins structurally skip the provider sweep entirely. Result
// emission is fused into the same scan, since u's selection is final
// exactly when the scan needs it to fill exps[u]. The scan runs down to the
// lowest transit AS; the leaves below it, whose exports nobody reads, are
// settled last by a loop of their own (see leaves).
func (st *fastState) pass(res *Result, via []bool) {
	st.begin()
	g, o := st.g, st.origin
	n := int32(len(st.recs))

	// Phase 0: the origin announces to every neighbor with per-neighbor λ,
	// skipping λ 0 (withheld) sessions; the attacker's pre-seeded export
	// and the siblings' offers join it.
	for _, p := range g.ProvidersIdx(o) {
		if c, ok := st.originSeed(p); ok {
			st.considerCust(p, c)
		}
	}
	for _, w := range g.PeersIdx(o) {
		if c, ok := st.originSeed(w); ok {
			st.considerPeer(w, c)
		}
	}
	// The origin's downward seeds are folded into the phase-3 pull: a
	// customer of the origin computes the seed when it sweeps its providers.
	if st.seedUp {
		st.seedUpward(st.upward)
	}
	if st.sibOff != nil {
		st.seedSiblings()
	}

	// Phases 1+2, fused over the customer-route worklist. Phase 1 (up):
	// customer-learned routes climb the provider DAG in ascending index
	// order, so each AS's best customer route is final before any of its
	// (higher-indexed) providers consume it — correct even though the
	// attacker's stripping makes lengths non-monotonic, because the order
	// is a DAG order, not a shortest-first order. Phase 2 (across, one
	// peer hop; only customer-learned routes cross it) rides the same
	// walk: u's customer entry is already final when the walk reaches u,
	// and nothing reads a peer entry until phase 3. The walk re-polls each
	// bitset word after processing a bit because pushes land only at
	// higher indices — ahead of the cursor, never behind it.
	words := st.custSet
	for wi := 0; wi < len(words); wi++ {
		var done uint64
		for {
			w := words[wi] &^ done
			if w == 0 {
				break
			}
			b := bits.TrailingZeros64(w)
			done |= 1 << uint(b)
			u := int32(wi<<6 | b)
			// The bit is only ever set on a write, so the entry is live.
			exp := st.export(u, st.recs[u].cust)
			for _, p := range g.ProvidersIdx(u) {
				st.considerCust(p, exp)
			}
			for _, pr := range g.PeersIdx(u) {
				st.considerPeer(pr, exp)
			}
		}
	}

	// Phase 3 (down): every AS selects its overall best route
	// (customer > peer > provider, regardless of length), emits its result
	// row, and records what it exports to customers in exps — consumed by
	// the pull sweep of each (lower-indexed) customer later in the scan.
	// An AS holding a provider-class sibling offer ends a stretch of the
	// scan: the offer is weighed against the row the scan just gave it,
	// before any of its customers reads its export. That keeps sibling
	// graphs out of the scan's inner loops altogether. The leaves, below
	// every other AS, close the scan in a loop of their own.
	if st.rows != nil {
		st.downRows(res)
		return
	}
	hi := n - 1
	if st.sibOff != nil {
		sibs := g.SiblingASes()
		for i := len(sibs) - 1; i >= 0; i-- {
			if u := sibs[i]; st.sibProv[u].key != noExport {
				st.down(res, via, hi, u)
				st.adoptSiblingProvider(u, res, via)
				hi = u - 1
			}
		}
	}
	nl := g.NumLeaves()
	st.down(res, via, hi, nl)
	st.leaves(res, via, nl)
}

// downRows is phase 3 over rows ∪ custSet only, as descending stretches of
// down: every row a monitor's parent chain touches, bit-equal to the full
// scan's (DESIGN §5b). down reads u's own tables and, when u holds neither a
// customer nor a peer route, its providers' exports — emitted earlier in this
// scan, rows being provider-closed. A chain climbs providers inside rows,
// crosses at most one peer link onto a customer-route holder, and descends
// customer-route holders to the origin: all in custSet.
func (st *fastState) downRows(res *Result) {
	for wi := len(st.rows) - 1; wi >= 0; wi-- {
		for w := st.rows[wi] | st.custSet[wi]; w != 0; {
			top := 63 - bits.LeadingZeros64(w)
			run := bits.LeadingZeros64(^(w << uint(63-top))) // set bits from top down
			bot := top - run + 1
			w &^= ^uint64(0) >> uint(64-run) << uint(bot)
			st.down(res, nil, int32(wi<<6|top), int32(wi<<6|bot))
		}
	}
}

// adoptSiblingProvider lets u's provider-class sibling offer compete with
// the row phase 3 gave u: it loses to a customer or peer route by class
// and to a provider route by the export key, and otherwise becomes u's
// selection and export.
func (st *fastState) adoptSiblingProvider(u int32, res *Result, via []bool) {
	e := st.sibProv[u]
	cur := noExport
	switch res.Class[u] {
	case ClassCustomer, ClassPeer:
		return
	case ClassProvider:
		cur = expKey(res.Len[u], st.g.ASNAt(res.Parent[u]))
	}
	if e.key >= cur {
		return
	}
	st.exps[u] = st.exportKey(u, e.route())
	emit(res, via, u, ClassProvider, e.route())
}

// down runs the phase-3 scan over the AS indices hi down to lo.
func (st *fastState) down(res *Result, via []bool, hi, lo int32) {
	o := st.origin
	st.s.rowsDown += int64(hi - lo + 1)
	for u := hi; u >= lo; u-- {
		if u == o {
			res.Class[u] = ClassNone
			res.Len[u] = 0 // the origin's own row: reachable at length 0
			res.Prep[u] = 0
			res.Parent[u] = -1
			if via != nil {
				via[u] = false
			}
			continue
		}
		if u == st.forger {
			// No selection: the row records the forged tail (Parent is the
			// origin, so a capturing AS's parent chain ends [... M] plus
			// Prep origin copies) and the claim goes down like any export.
			st.exps[u] = st.exportKey(u, st.claim)
			res.Class[u] = ClassNone
			res.Len[u] = st.claim.len
			res.Prep[u] = st.claim.prep
			res.Parent[u] = o
			via[u] = false
			continue
		}
		// The bitsets say which table u's selection comes from without
		// touching its record: a set bit implies a live entry (bits are
		// only set on an in-epoch write).
		var sel cand
		cls := ClassNone
		if bit := uint64(1) << uint(u&63); st.custSet[u>>6]&bit != 0 {
			cls, sel = ClassCustomer, st.recs[u].cust
		} else if st.peerSet[u>>6]&bit != 0 {
			cls, sel = ClassPeer, st.recs[u].peer
		} else if best := st.sweep(u); best.key != noExport {
			cls, sel = ClassProvider, best.route()
		}
		if cls == ClassNone {
			st.exps[u].key = noExport
		} else {
			st.exps[u] = st.exportKey(u, sel)
		}
		emit(res, via, u, cls, sel)
	}
}

// leaves is phase 3 over the leaf rows [0, nl) (topology.Graph.NumLeaves).
// A leaf holds no customer or peer route — nobody offers it one — and no
// AS reads its export, so its row is its providers' sweep alone: no class
// probe, no exps write. Leaves of one provider are numbered side by side,
// so a run of them reads that provider's export from cache. An announcer
// that is a leaf takes its row from down.
func (st *fastState) leaves(res *Result, via []bool, nl int32) {
	st.s.rowsDown += int64(nl)
	for u := int32(0); u < nl; u++ {
		if u == st.origin || u == st.forger {
			st.s.rowsDown-- // down counts the row it writes
			st.down(res, via, u, u)
			continue
		}
		cls, best := ClassNone, st.sweep(u)
		if best.key != noExport {
			cls = ClassProvider
		}
		emit(res, via, u, cls, best.route())
	}
}

// sweep returns the best of the final exports u's providers offer it, key
// noExport when none is admissible. The key compare subsumes betterCand AND
// the emptiness check (noExport loses to every real offer), so a valid
// offer costs one compare plus the loop-rejection and quarantine probes.
func (st *fastState) sweep(u int32) expCand {
	if !st.uniform {
		st.seedToward(u)
	}
	best := expCand{key: noExport}
	rej := u == st.atkIdx || st.reject[u]
	var q int16
	if st.quar != nil {
		q = st.quar[u]
	}
	for _, p := range st.g.ProvidersIdx(u) {
		if e := st.exps[p]; e.key < best.key && !(e.via && rej) && e.prep >= q {
			best = e
		}
	}
	return best
}

// seedToward stores the origin's seed toward u in exps[origin] when the
// origin is u's provider: the per-neighbor λ, or noExport at λ 0. Only a
// non-uniform announcement needs it (see init).
func (st *fastState) seedToward(u int32) {
	for _, p := range st.g.ProvidersIdx(u) {
		if p == st.origin {
			e := expCand{key: noExport}
			if c, ok := st.originSeed(u); ok {
				e = expCand{key: expKey(c.len, st.ann.Origin), parent: p, prep: c.prep}
			}
			st.exps[p] = e
		}
	}
}

// emit writes u's result row: sel under class cls, or no route when cls is
// ClassNone.
func emit(res *Result, via []bool, u int32, cls Class, sel cand) {
	if cls == ClassNone {
		sel = cand{len: -1, parent: -1}
	}
	res.Class[u] = cls
	res.Len[u] = sel.len
	res.Prep[u] = sel.prep
	res.Parent[u] = sel.parent
	if via != nil {
		via[u] = sel.via
	}
}
