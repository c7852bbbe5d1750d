package routing

import (
	"errors"
	"math/bits"

	"aspp/internal/topology"
)

// This file implements the Delta engine: attack propagation as an
// incremental recomputation against a warmed no-attack baseline.
//
// The key observation is that the attacker is the only perturbation to the
// system — every route offer that differs from the baseline traverses the
// attacker (its stripping shortens paths; its optional valley-free
// violation adds exports; both are via-marked). Non-via offers can only
// degrade or disappear relative to the baseline, never improve, so the set
// of ASes whose best route can change is exactly the cone reachable from
// the attacker through the same three phases the Fast engine runs. The
// Delta engine seeds that cone at the attacker's neighbors and walks only
// it, reading everything outside the cone straight from the baseline
// (copy-on-write: the result starts as a byte copy of the baseline and
// only rows that change are rewritten).
//
// Per-class baseline candidate tables are recoverable from a Result
// without storing them: the customer-table entry is the baseline route
// exactly when Class == ClassCustomer (a nonempty customer entry always
// wins structurally, so it is never hidden), the peer entry is hidden only
// behind a customer route, and the provider entry behind either. Whenever
// a recomputation could expose a hidden lower-class entry (a customer
// entry emptied, a peer entry changed), the engine forces that entry to be
// recomputed too, so hidden state is materialized exactly where selection
// could fall through to it. The differential suite in engines_test.go pins
// this cone invariant against both other engines.
//
// Each phase runs off a worklist bitset on the Scratch (Scratch.dirty), so
// a leg costs O(cone + n/64), not O(n). Every phase consumes the bits it
// scans, which leaves the worklists zero between calls. Recomputed customer
// and peer entries live in the Scratch's nodeRec table, which the Fast
// engine shares; they are read only under a touch bit in the packed dflags
// array, so the table needs no reset. The flags are reset in O(cone) by
// replaying the Scratch's touched list, which lists every AS any worklist
// ever held. Provider entries are never stored: phase 3 reaches an AS after
// all its (higher-indexed) providers, pulls their offers off the delta
// slot's rows and writes the AS's final row there when it changed, so the
// next call repairs only those rows.

// Per-AS bits for one delta propagation. A touch bit records that the
// entry in the record table is authoritative (untouched entries are read
// from the baseline instead); deltaListed records that the AS is on the
// touched list, and deltaWritten that phase 3 rewrote its row.
const (
	deltaTouchCust uint8 = 1 << iota
	deltaTouchPeer
	deltaListed
	deltaWritten
)

// The three delta worklists, one per phase, index Scratch.dirty.
const (
	dirtyCust = iota // phase 1: customer entries to recompute
	dirtyPeer        // phase 2: peer entries to recompute
	dirtyProv        // phase 3: selections to recompute
)

// deltaState carries one incremental propagation over a Scratch's record
// table; only entries with the matching touch bit are meaningful.
type deltaState struct {
	g      *topology.Graph
	origin int32
	ann    Announcement
	base   *Result
	res    *Result // the delta slot: baseline rows outside the cone

	atkIdx  int32
	keep    int16
	violate bool

	recs   []nodeRec
	flags  []uint8
	dirty  [3][]uint64
	reject []bool
	s      *Scratch // owner of flags' touched list
}

// orFlags sets bits on u, registering u on the touched list the first
// time so the flags can be cleared in O(cone) afterwards.
func (st *deltaState) orFlags(u int32, bits uint8) {
	if st.flags[u] == 0 {
		st.s.touched = append(st.s.touched, u)
	}
	st.flags[u] |= bits
}

// baseEntry reconstructs u's baseline table entry of class cls from the
// result: present exactly when the baseline selection has that class.
func (st *deltaState) baseEntry(u int32, cls Class) cand {
	if st.base.Class[u] != cls {
		return cand{len: -1}
	}
	return cand{len: st.base.Len[u], parent: st.base.Parent[u], prep: st.base.Prep[u]}
}

// baseSel reconstructs u's baseline selected route (len -1 if unreachable).
func (st *deltaState) baseSel(u int32) cand {
	if st.base.Class[u] == ClassNone {
		return cand{len: -1}
	}
	return cand{len: st.base.Len[u], parent: st.base.Parent[u], prep: st.base.Prep[u]}
}

// custOf returns u's current customer-table entry: the recomputed value
// when touched, the baseline-derived default otherwise.
func (st *deltaState) custOf(u int32) cand {
	if st.flags[u]&deltaTouchCust != 0 {
		return st.recs[u].cust
	}
	return st.baseEntry(u, ClassCustomer)
}

// peerOf is custOf for the peer table. The baseline peer entry is only
// visible when the baseline selection is peer-learned; a peer entry hidden
// behind a customer route is reconstructed by a forced recomputation
// before anything reads it (see the fall-through marking rules).
func (st *deltaState) peerOf(u int32) cand {
	if st.flags[u]&deltaTouchPeer != 0 {
		return st.recs[u].peer
	}
	return st.baseEntry(u, ClassPeer)
}

// candEq reports whether two table entries are interchangeable, including
// the via flag (a via-only difference must still propagate: it flips loop
// rejection and pollution downstream).
func candEq(a, b cand) bool {
	if a.len < 0 && b.len < 0 {
		return true
	}
	return a.len == b.len && a.parent == b.parent && a.prep == b.prep && a.via == b.via
}

// acceptable applies the receiver-side loop check of fastState.admissible.
func (st *deltaState) acceptable(at int32, c cand) bool {
	if c.len < 0 {
		return false
	}
	return !c.via || (at != st.atkIdx && !st.reject[at])
}

// originSeed is the origin's phase-0 offer toward neighbor nbr (see
// Announcement.seed), len -1 at λ 0.
func (st *deltaState) originSeed(nbr int32) cand {
	if c, ok := st.ann.seed(st.g, st.origin, nbr); ok {
		return c
	}
	return cand{len: -1}
}

// custExport is what u offers in phases 1-2 (its customer-learned route,
// or — for a violating attacker — its best route regardless of class, whose
// provider entry is still the baseline's this early). Callers handle
// u == origin separately via originSeed.
func (st *deltaState) custExport(u int32) cand {
	c := st.custOf(u)
	if st.violate && u == st.atkIdx && c.len < 0 {
		if c = st.peerOf(u); c.len < 0 {
			c = st.baseEntry(u, ClassProvider)
		}
	}
	if c.len < 0 {
		return c
	}
	return exportCand(u, c, st.atkIdx, st.keep)
}

// recomputeCust rebuilds at's customer-table entry from every customer's
// current offer.
func (st *deltaState) recomputeCust(at int32) cand {
	best := cand{len: -1}
	for _, c := range st.g.CustomersIdx(at) {
		var e cand
		if c == st.origin {
			e = st.originSeed(at)
		} else {
			e = st.custExport(c)
		}
		if st.acceptable(at, e) && betterCand(st.g, e, best) {
			best = e
		}
	}
	return best
}

// recomputePeer rebuilds at's peer-table entry from every peer's offer.
func (st *deltaState) recomputePeer(at int32) cand {
	best := cand{len: -1}
	for _, w := range st.g.PeersIdx(at) {
		var e cand
		if w == st.origin {
			e = st.originSeed(at)
		} else {
			e = st.custExport(w)
		}
		if st.acceptable(at, e) && betterCand(st.g, e, best) {
			best = e
		}
	}
	return best
}

// provEntry computes u's provider-table entry from every provider's
// phase-3 offer: its row in the delta slot (a baseline copy outside the
// cone, final inside it, the scan having passed every provider), exported
// downward. Offers are ranked by the kernel's packed (length, ASN) key, so
// a provider costs its row's length and ASN; only the winner's row is read
// whole.
func (st *deltaState) provEntry(u int32) cand {
	g, res := st.g, st.res
	rej := u == st.atkIdx || st.reject[u]
	best, bestKey, seed := int32(-1), noExport, cand{len: -1}
	for _, p := range g.ProvidersIdx(u) {
		ln := res.Len[p] + 1
		switch {
		case p == st.origin:
			if seed = st.originSeed(u); seed.len < 0 {
				continue
			}
			ln = seed.len
		case ln <= 0, rej && (p == st.atkIdx || res.Via[p]):
			continue
		case p == st.atkIdx:
			ln = st.rowExport(p).len
		}
		if k := expKey(ln, g.ASNAt(p)); k < bestKey {
			best, bestKey = p, k
		}
	}
	switch best {
	case -1:
		return cand{len: -1}
	case st.origin:
		return seed
	}
	return st.rowExport(best)
}

// rowExport is what p offers its customers given its row in the delta slot.
func (st *deltaState) rowExport(p int32) cand {
	res := st.res
	return exportCand(p, cand{len: res.Len[p], parent: res.Parent[p], prep: res.Prep[p], via: res.Via[p]}, st.atkIdx, st.keep)
}

// mark queues at on worklist list; the origin never adopts a route so it
// stays out of the cone.
func (st *deltaState) mark(at int32, list int) {
	if at == st.origin {
		return
	}
	st.orFlags(at, deltaListed)
	st.dirty[list][at>>6] |= 1 << uint(at&63)
}

// seed marks the attacker's neighbors dirty. Every offer the attacker
// makes differs from its baseline offer (via-marked, possibly stripped),
// so its whole neighborhood enters the cone; nothing else changes at
// phase 0, so nothing else seeds it.
func (st *deltaState) seed() {
	a := st.atkIdx
	if st.custOf(a).len >= 0 || st.violate {
		for _, p := range st.g.ProvidersIdx(a) {
			st.mark(p, dirtyCust)
		}
		for _, w := range st.g.PeersIdx(a) {
			st.mark(w, dirtyPeer)
		}
	}
	for _, c := range st.g.CustomersIdx(a) {
		st.mark(c, dirtyProv)
	}
}

// run walks the three phases over the worklists. Dense AS indices are
// up-topological (a topology.Graph build invariant), so phase 1 pushes
// only to higher indices and phase 3 only to lower ones: each scans its
// worklist in that direction and re-polls the current word after every
// bit, which catches pushes into it. Each scan clears the bits it takes.
func (st *deltaState) run() {
	g := st.g

	// Phase 1 (up): recompute dirty customer entries in topological order,
	// so a dirty customer's entry is final before its providers read it.
	cust := st.dirty[dirtyCust]
	for wi := range cust {
		for cust[wi] != 0 {
			b := bits.TrailingZeros64(cust[wi])
			cust[wi] &^= 1 << uint(b)
			u := int32(wi<<6 | b)
			old := st.baseEntry(u, ClassCustomer)
			nw := st.recomputeCust(u)
			st.recs[u].cust = nw
			st.orFlags(u, deltaTouchCust)
			if candEq(nw, old) {
				continue
			}
			// u's phase-1/2 offers changed; its selection may change too, and
			// an emptied customer entry can expose a hidden peer entry.
			for _, p := range g.ProvidersIdx(u) {
				st.mark(p, dirtyCust)
			}
			for _, w := range g.PeersIdx(u) {
				st.mark(w, dirtyPeer)
			}
			st.mark(u, dirtyProv)
			if nw.len < 0 {
				st.mark(u, dirtyPeer)
			}
		}
	}

	// Phase 2 (across): recompute dirty peer entries. Peer entries depend
	// only on customer entries, which are final, so the order is free.
	peer := st.dirty[dirtyPeer]
	for wi := range peer {
		for peer[wi] != 0 {
			b := bits.TrailingZeros64(peer[wi])
			peer[wi] &^= 1 << uint(b)
			u := int32(wi<<6 | b)
			nw := st.recomputePeer(u)
			st.recs[u].peer = nw
			st.orFlags(u, deltaTouchPeer)
			if !candEq(nw, st.baseEntry(u, ClassPeer)) {
				st.mark(u, dirtyProv)
			}
		}
	}

	// Phase 3 (down): settle dirty selections in reverse topological order.
	// Every AS whose customer or peer entry changed was queued here, so this
	// pass sees every possible selection change.
	prov := st.dirty[dirtyProv]
	for wi := len(prov) - 1; wi >= 0; wi-- {
		for prov[wi] != 0 {
			b := 63 - bits.LeadingZeros64(prov[wi])
			prov[wi] &^= 1 << uint(b)
			st.settle(int32(wi<<6 | b))
		}
	}
}

// settle is phase 3 at u: its selection (customer > peer > provider) is
// final, so a row that differs from the baseline is written into the delta
// slot, and the change is pushed to u's customers.
func (st *deltaState) settle(u int32) {
	sel, cls := st.custOf(u), ClassCustomer
	if sel.len < 0 {
		sel, cls = st.peerOf(u), ClassPeer
	}
	if sel.len < 0 {
		sel, cls = st.provEntry(u), ClassProvider
	}
	if sel.len < 0 {
		cls = ClassNone
	}
	if candEq(sel, st.baseSel(u)) {
		return
	}
	st.flags[u] |= deltaWritten
	emit(st.res, st.res.Via, u, cls, sel)
	for _, c := range st.g.CustomersIdx(u) {
		st.mark(c, dirtyProv)
	}
}

// copyRows resets r to a copy of src's rows on reused storage and attaches
// via (cleared) as its Via slice.
func copyRows(r, src *Result, via []bool) *Result {
	resultInto(r, src.g, src.origin)
	copy(r.Class, src.Class)
	copy(r.Len, src.Len)
	copy(r.Prep, src.Prep)
	copy(r.Parent, src.Parent)
	r.Via = via[:len(r.Class)]
	clear(r.Via)
	return r
}

// PropagateAttackDelta computes the same stable attack outcome as
// PropagateAttackScratch by incremental recomputation against the no-attack
// baseline, visiting only the cone of ASes the attack can affect. baseline
// must be the no-attack Result for the same graph and announcement (a
// cached one shared read-only across goroutines is fine); nil recomputes
// it into the Scratch's baseline slot. The returned Result is borrowed
// from the Scratch's delta slot — independent of the baseline and attack
// slots, so the usual baseline-then-attack pairing extends to all three.
// Once warmed, the call is allocation-free; setup replays the previous
// call's touched and rejection lists (O(previous cone)) instead of
// clearing whole tables, so its cost scales with the cone, not the graph.
// With s == nil it runs on a fresh private Scratch.
func PropagateAttackDelta(g *topology.Graph, ann Announcement, atk Attacker, baseline *Result, s *Scratch) (*Result, error) {
	if err := ann.Validate(g); err != nil {
		return nil, err
	}
	if err := atk.Validate(g, ann); err != nil {
		return nil, err
	}
	if atk.Kind != AttackASPP {
		return nil, errNeedsStrip
	}
	if g.HasSiblings() {
		return nil, ErrSiblingsNeedFullKernel
	}
	if s == nil {
		s = NewScratch()
	}
	if baseline == nil {
		var err error
		baseline, err = PropagateScratch(g, ann, s)
		if err != nil {
			return nil, err
		}
	} else if baseline.g != g || baseline.Origin() != ann.Origin {
		return nil, errors.New("routing: delta baseline is for a different graph or origin")
	}
	atkIdx, _ := g.Index(atk.AS)
	if baseline.Class[atkIdx] == ClassNone {
		return nil, ErrUnreachableAttacker
	}

	var st deltaState
	st.g = g
	st.origin = baseline.OriginIdx()
	st.ann = ann
	st.base = baseline
	st.atkIdx = atkIdx
	st.keep = atk.keep()
	st.violate = atk.ViolateValleyFree
	// A fresh epoch is opened even though this engine reads candidate
	// entries only under touch bits: it invalidates any Fast-engine
	// leftovers in the shared records, so the two engines can interleave
	// on one Scratch without seeing each other's state.
	n := g.NumASes()
	st.recs, _ = s.beginPropagation(n)
	s.ensureDelta(n)
	st.flags = s.dflags[:n]
	for k := range st.dirty {
		st.dirty[k] = s.dirty[k][:(n+63)>>6]
	}
	st.reject = s.reject[:n]
	st.s = s

	// Result setup. When the caller presents the same baseline rows as the
	// previous delta call on this Scratch — the same Result at the same
	// version, as a sweep shard's legs on one baseline do — the delta slot
	// differs from them only in the rows the previous call wrote, so
	// repairing those (replaying the still-intact touched list and flags)
	// brings it back to a pristine baseline copy in O(prev cone). Anything
	// else falls back to the full O(n) copy.
	res := &s.delta
	if s.deltaBase == baseline && s.deltaVer == baseline.ver && res.g == g {
		for _, i := range s.touched {
			if s.dflags[i]&deltaWritten == 0 {
				continue
			}
			res.Class[i] = baseline.Class[i]
			res.Len[i] = baseline.Len[i]
			res.Prep[i] = baseline.Prep[i]
			res.Parent[i] = baseline.Parent[i]
			res.Via[i] = false
		}
	} else {
		res = copyRows(res, baseline, s.deltaVia)
		s.deltaBase, s.deltaVer = baseline, baseline.ver
	}
	s.clearDeltaFlags()

	s.clearRejects()
	for j := baseline.Parent[atkIdx]; j != st.origin; j = baseline.Parent[j] {
		s.setReject(j)
	}

	st.res = res
	st.seed()
	st.run()
	return res, nil
}
