package routing

import (
	"errors"
	"fmt"
	"math/bits"

	"aspp/internal/topology"
)

// This file implements the batched Delta engine: up to MaxLanes
// independent attack propagations — each an incremental recomputation
// against its own memoized baseline — walked under ONE shared frontier.
//
// The serial Delta engine (delta.go) visits only the attacker's dirty
// cone, but pays three O(n) index scans per call to find it: the packed
// flag bytes must be probed at every AS. A pair sweep runs one such call
// per draw, so the scans dominate exactly when cones are small (stub
// attackers — the common case for random pairs). Lanes amortize them:
// per-AS dirty/touched state becomes a lane MASK (dlaneRec, one bit per
// lane), the phase worklists become shared bitsets ORed across lanes
// (bit u set when ANY lane queued u), and the ascending/descending
// cone walks run once per <=64-lane chunk instead of once per draw.
// The ordering argument is the serial engine's, extended lane-wise: a
// dirty-customer mark only ever lands at a strictly higher index than
// its marker (providers index above customers — a topology build
// invariant) and a dirty-provider mark at a strictly lower one, so when
// the shared cursor reaches an AS, every lane's marks there are final;
// the per-word re-poll catches same-word bits ahead of the cursor.
//
// Per-lane reads are copy-on-write against that lane's baseline, exactly
// as in the serial engine: a candidate-table entry is authoritative only
// under its lane's touch bit, anything else is reconstructed from the
// lane's baseline Result. Lanes may share one baseline object (the
// grouped-sweep case: one (origin, λ) baseline cache entry, K attackers)
// or carry distinct ones (a λ sweep: one lane per λ). The customer/peer
// candidate payloads live in the BatchScratch's stride-k lane tables,
// shared with PropagateBatch — both engines read entries only under
// their own epoch-guarded masks, so the payloads need no reset and the
// two engines can interleave on one BatchScratch (the warm-then-attack
// sweep pattern).
//
// Result setup is O(cone) too: the BatchScratch remembers which baseline
// each result slot mirrors (laneBase) and the previous call's cone rows
// (the swapped btouched/bprevT lists), so a slot reused for the same
// baseline in the very next call is repaired row-by-row instead of
// re-copied — the batched analogue of the serial deltaBase repair.

// MaxLanes is the widest lane group one shared frontier walk carries —
// each lane owns one bit in the per-AS lane masks, so a uint64 bounds a
// group at 64. Wider batches run as consecutive chunks on one
// BatchScratch. Exported for -batch flag validation.
const MaxLanes = batchMaxLanes

// dlaneRec is one AS's per-lane dirty/touched state for a batched delta
// propagation: which lanes queued each table entry for recomputation
// (dcust/dpeer/dprov) and which lanes' recomputed entries are
// authoritative (tcust/tpeer/tprov — anything else reads from that
// lane's baseline). The gen stamp implements O(1) chunk reset exactly as
// laneRec does; the pad rounds the record to 64 bytes so each AS's
// masks occupy exactly one cache line.
type dlaneRec struct {
	dcust, dpeer, dprov uint64
	tcust, tpeer, tprov uint64
	gen                 uint32
	_                   uint32
}

// AttackLane is one lane of a PropagateAttackDeltaBatch call: an
// announcement, the attacker intercepting it, and the memoized no-attack
// baseline the delta recomputation reads through. Baseline is required
// (the batched engine never computes baselines — PropagateBatch or the
// baseline cache does) and must be the no-attack Result for Ann on the
// same graph, stable for the duration of the call; a cached Result
// shared read-only across lanes and goroutines is fine.
type AttackLane struct {
	Ann      Announcement
	Atk      Attacker
	Baseline *Result
}

// ensureDeltaBatch sizes the delta-batch side tables against the
// scratch's current (n, k) capacity. Fresh dlane records carry zero gen
// stamps — stale by construction once any chunk has opened an epoch.
func (s *BatchScratch) ensureDeltaBatch() {
	n, k := s.n, s.k
	if len(s.dlanes) < n {
		s.dlanes = make([]dlaneRec, n)
	}
	if len(s.bdprov) < n*k {
		s.bdprov = make([]cand, n*k)
	}
	if w := (n + 63) >> 6; len(s.provSet) < w {
		s.provSet = make([]uint64, w)
	}
	if len(s.brej) < n {
		s.brej = make([]uint64, n)
		s.brejList = make([]int32, 0, n)
	}
	if s.btouched == nil {
		s.btouched = make([]int32, 0, n)
		s.bprevT = make([]int32, 0, n)
	}
	if s.btouchedM == nil {
		s.btouchedM = make([]uint64, 0, n)
		s.bprevM = make([]uint64, 0, n)
		s.btouchedStarts = make([]int32, 0, 8)
		s.bprevStarts = make([]int32, 0, 8)
	}
}

// ensureLaneMeta sizes the per-slot delta metadata for k lanes on an
// n-AS graph. It runs after ensureResults, so len(results) covers k;
// when ensureResults reallocated the slots, the fresh Results fail the
// repair identity checks naturally (res.g == nil) and fall back to full
// copies, so stale metadata can never repair a reallocated slot.
func (s *BatchScratch) ensureLaneMeta(n, k int) {
	if len(s.laneVia) < len(s.results) {
		nv := make([][]bool, len(s.results))
		copy(nv, s.laneVia)
		s.laneVia = nv
		s.laneBase = make([]*Result, len(s.results))
		s.laneGen = make([]uint64, len(s.results))
	}
	for i := 0; i < k; i++ {
		if len(s.laneVia[i]) < n {
			s.laneVia[i] = make([]bool, growCap(n, len(s.laneVia[i])))
		}
	}
}

// batchDeltaState carries one <=64-lane chunk of attack deltas over a
// BatchScratch's lane tables; it lives on the caller's stack. A record's
// lane masks are live only when its gen stamp equals epoch.
type batchDeltaState struct {
	g     *topology.Graph
	lanes []AttackLane

	w      int // lanes in this chunk
	stride int // lane-major row stride (the scratch's k)
	epoch  uint32

	origins [batchMaxLanes]int32
	atkIdx  [batchMaxLanes]int32
	keeps   [batchMaxLanes]int16
	violate uint64 // lanes whose attacker ignores valley-free export

	// shared is the one baseline every lane in the chunk reads, or nil
	// when lanes carry distinct baselines. The grouped-sweep case (one
	// (origin, λ) cache entry, K attackers) hits the shared fast path:
	// per-neighbor baseline entries are loaded once per AS instead of
	// once per (AS, lane).
	shared *Result

	dl   []dlaneRec
	cust []cand // recomputed customer entries (shared with PropagateBatch)
	peer []cand // recomputed peer entries (shared with PropagateBatch)
	prov []cand // recomputed provider entries (bdprov)
	rej  []uint64

	// Shared frontier bitsets: bit u is the OR across lanes of "u's
	// {customer,peer,provider} entry is queued dirty".
	dirtyCust []uint64
	dirtyPeer []uint64
	dirtyProv []uint64

	s *BatchScratch // owner of the btouched and brejList lists
}

// init prepares st for one chunk, opening a fresh epoch, clearing the
// shared frontier bitsets, resetting the lane rejection masks by
// replaying the previous chunk's mark list, and precomputing each
// lane's attacker state and loop-rejection path.
func (st *batchDeltaState) init(g *topology.Graph, lanes []AttackLane, s *BatchScratch) {
	n := g.NumASes()
	st.g = g
	st.lanes = lanes
	st.w = len(lanes)
	st.stride = s.k
	st.epoch = s.beginChunk()
	st.dl = s.dlanes[:n]
	st.cust = s.cust[:n*s.k]
	st.peer = s.peer[:n*s.k]
	st.prov = s.bdprov[:n*s.k]
	st.rej = s.brej[:n]
	w := (n + 63) >> 6
	st.dirtyCust = s.custSet[:w]
	st.dirtyPeer = s.peerSet[:w]
	st.dirtyProv = s.provSet[:w]
	for i := 0; i < w; i++ {
		st.dirtyCust[i] = 0
		st.dirtyPeer[i] = 0
		st.dirtyProv[i] = 0
	}
	for _, i := range s.brejList {
		s.brej[i] = 0
	}
	s.brejList = s.brejList[:0]
	st.s = s
	st.violate = 0
	st.shared = lanes[0].Baseline
	for l := 1; l < len(lanes); l++ {
		if lanes[l].Baseline != st.shared {
			st.shared = nil
			break
		}
	}
	for l := range lanes {
		b := lanes[l].Baseline
		o := b.OriginIdx()
		st.origins[l] = o
		ai, _ := g.Index(lanes[l].Atk.AS)
		st.atkIdx[l] = ai
		st.keeps[l] = lanes[l].Atk.keep()
		if lanes[l].Atk.ViolateValleyFree {
			st.violate |= 1 << uint(l)
		}
		// Loop rejection: exactly the ASes on the attacker's own
		// (baseline) path reject via-marked routes, per lane.
		bit := uint64(1) << uint(l)
		for j := b.Parent[ai]; j != o; j = b.Parent[j] {
			if st.rej[j] == 0 {
				s.brejList = append(s.brejList, j)
			}
			st.rej[j] |= bit
		}
	}
}

// markCust queues lane l's customer entry at AS at for recomputation.
// The first mark an AS sees in a chunk stamps its record (zeroing the
// masks) and registers it on the touched list, so finish and the next
// call's repair stay O(cone).
func (st *batchDeltaState) markCust(at int32, l int) {
	if at == st.origins[l] {
		return
	}
	r := &st.dl[at]
	if r.gen != st.epoch {
		*r = dlaneRec{gen: st.epoch}
		st.s.btouched = append(st.s.btouched, at)
	}
	r.dcust |= 1 << uint(l)
	st.dirtyCust[at>>6] |= 1 << uint(at&63)
}

// markPeer is markCust for the peer table.
func (st *batchDeltaState) markPeer(at int32, l int) {
	if at == st.origins[l] {
		return
	}
	r := &st.dl[at]
	if r.gen != st.epoch {
		*r = dlaneRec{gen: st.epoch}
		st.s.btouched = append(st.s.btouched, at)
	}
	r.dpeer |= 1 << uint(l)
	st.dirtyPeer[at>>6] |= 1 << uint(at&63)
}

// maskWithoutOrigin drops from m every lane whose origin is at — the
// origin never recomputes (its route is the announcement itself).
func (st *batchDeltaState) maskWithoutOrigin(at int32, m uint64) uint64 {
	if st.shared != nil {
		if at == st.origins[0] {
			return 0
		}
		return m
	}
	for mm := m; mm != 0; {
		l := bits.TrailingZeros64(mm)
		bit := uint64(1) << uint(l)
		mm &^= bit
		if st.origins[l] == at {
			m &^= bit
		}
	}
	return m
}

// markCustMask queues the whole lane set m at AS at with one record
// stamp and one frontier-bit write — the drains' bulk form of markCust.
func (st *batchDeltaState) markCustMask(at int32, m uint64) {
	m = st.maskWithoutOrigin(at, m)
	if m == 0 {
		return
	}
	r := &st.dl[at]
	if r.gen != st.epoch {
		*r = dlaneRec{gen: st.epoch}
		st.s.btouched = append(st.s.btouched, at)
	}
	r.dcust |= m
	st.dirtyCust[at>>6] |= 1 << uint(at&63)
}

// markPeerMask is markCustMask for the peer table.
func (st *batchDeltaState) markPeerMask(at int32, m uint64) {
	m = st.maskWithoutOrigin(at, m)
	if m == 0 {
		return
	}
	r := &st.dl[at]
	if r.gen != st.epoch {
		*r = dlaneRec{gen: st.epoch}
		st.s.btouched = append(st.s.btouched, at)
	}
	r.dpeer |= m
	st.dirtyPeer[at>>6] |= 1 << uint(at&63)
}

// markProvMask is markCustMask for the provider table.
func (st *batchDeltaState) markProvMask(at int32, m uint64) {
	m = st.maskWithoutOrigin(at, m)
	if m == 0 {
		return
	}
	r := &st.dl[at]
	if r.gen != st.epoch {
		*r = dlaneRec{gen: st.epoch}
		st.s.btouched = append(st.s.btouched, at)
	}
	r.dprov |= m
	st.dirtyProv[at>>6] |= 1 << uint(at&63)
}

// markProv is markCust for the provider table.
func (st *batchDeltaState) markProv(at int32, l int) {
	if at == st.origins[l] {
		return
	}
	r := &st.dl[at]
	if r.gen != st.epoch {
		*r = dlaneRec{gen: st.epoch}
		st.s.btouched = append(st.s.btouched, at)
	}
	r.dprov |= 1 << uint(l)
	st.dirtyProv[at>>6] |= 1 << uint(at&63)
}

// baseCust reconstructs u's baseline customer-table entry for lane l
// (present exactly when the baseline selection is customer-learned).
func (st *batchDeltaState) baseCust(u int32, l int) cand {
	b := st.lanes[l].Baseline
	if b.Class[u] != ClassCustomer {
		return cand{len: -1}
	}
	return cand{len: b.Len[u], parent: b.Parent[u], prep: b.Prep[u]}
}

// baseSel reconstructs u's baseline selected route for lane l.
func (st *batchDeltaState) baseSel(u int32, l int) cand {
	b := st.lanes[l].Baseline
	if b.Class[u] == ClassNone {
		return cand{len: -1}
	}
	return cand{len: b.Len[u], parent: b.Parent[u], prep: b.Prep[u]}
}

// custOf returns u's current customer-table entry in lane l: the
// recomputed value when touched, the baseline-derived default otherwise.
func (st *batchDeltaState) custOf(u int32, l int) cand {
	if r := &st.dl[u]; r.gen == st.epoch && r.tcust&(1<<uint(l)) != 0 {
		return st.cust[int(u)*st.stride+l]
	}
	return st.baseCust(u, l)
}

// peerOf is custOf for the peer table; a baseline peer entry is visible
// only when the baseline selection is peer-learned (hidden entries are
// materialized by forced recomputation, as in the serial engine).
func (st *batchDeltaState) peerOf(u int32, l int) cand {
	if r := &st.dl[u]; r.gen == st.epoch && r.tpeer&(1<<uint(l)) != 0 {
		return st.peer[int(u)*st.stride+l]
	}
	b := st.lanes[l].Baseline
	if b.Class[u] != ClassPeer {
		return cand{len: -1}
	}
	return cand{len: b.Len[u], parent: b.Parent[u], prep: b.Prep[u]}
}

// provOf is custOf for the provider table.
func (st *batchDeltaState) provOf(u int32, l int) cand {
	if r := &st.dl[u]; r.gen == st.epoch && r.tprov&(1<<uint(l)) != 0 {
		return st.prov[int(u)*st.stride+l]
	}
	b := st.lanes[l].Baseline
	if b.Class[u] != ClassProvider {
		return cand{len: -1}
	}
	return cand{len: b.Len[u], parent: b.Parent[u], prep: b.Prep[u]}
}

// selOf returns u's current best route in lane l: customer > peer >
// provider.
func (st *batchDeltaState) selOf(u int32, l int) cand {
	if c := st.custOf(u, l); c.len >= 0 {
		return c
	}
	if c := st.peerOf(u, l); c.len >= 0 {
		return c
	}
	return st.provOf(u, l)
}

// originSeed is lane l's origin phase-0 offer toward neighbor nbr.
func (st *batchDeltaState) originSeed(nbr int32, l int) cand {
	ann := &st.lanes[l].Ann
	asn := st.g.ASNAt(nbr)
	if ann.Withhold[asn] {
		return cand{len: -1}
	}
	lam := int32(ann.lambdaFor(asn))
	return cand{len: lam, prep: int16(lam), parent: st.origins[l]}
}

// recomputeCustMask rebuilds at's customer entry for every lane in m,
// scanning at's customer adjacency once: each neighbor's lane record and
// (shared) baseline entry are loaded once per AS instead of once per
// (AS, lane) — the amortization the shared walk exists for.
func (st *batchDeltaState) recomputeCustMask(at int32, m uint64, bests *[batchMaxLanes]cand) {
	for mm := m; mm != 0; {
		l := bits.TrailingZeros64(mm)
		mm &^= 1 << uint(l)
		bests[l] = cand{len: -1}
	}
	for _, c := range st.g.CustomersIdx(at) {
		st.offerMask(at, c, m, bests)
	}
}

// recomputePeerMask rebuilds at's peer entry for every lane in m from
// its peers' phase-2 offers (the same customer-route export as phase 1).
func (st *batchDeltaState) recomputePeerMask(at int32, m uint64, bests *[batchMaxLanes]cand) {
	for mm := m; mm != 0; {
		l := bits.TrailingZeros64(mm)
		mm &^= 1 << uint(l)
		bests[l] = cand{len: -1}
	}
	for _, w := range st.g.PeersIdx(at) {
		st.offerMask(at, w, m, bests)
	}
}

// offerMask folds neighbor c's phase-1/2 offer — its exported
// customer-learned route, or the violating attacker's best route — into
// bests for every lane in m. c's lane record and shared-baseline entry
// are loaded once, so the per-lane body runs on registers.
func (st *batchDeltaState) offerMask(at, c int32, m uint64, bests *[batchMaxLanes]cand) {
	g := st.g
	rejAt := st.rej[at]
	r := &st.dl[c]
	var tc uint64
	if r.gen == st.epoch {
		tc = r.tcust
	}
	crow := st.cust[int(c)*st.stride:]
	sb := st.shared
	bc := cand{len: -1}
	if sb != nil && sb.Class[c] == ClassCustomer {
		bc = cand{len: sb.Len[c], parent: sb.Parent[c], prep: sb.Prep[c]}
	}
	for mm := m; mm != 0; {
		l := bits.TrailingZeros64(mm)
		bit := uint64(1) << uint(l)
		mm &^= bit
		var e cand
		if c == st.origins[l] {
			e = st.originSeed(at, l)
		} else {
			switch {
			case tc&bit != 0:
				e = crow[l]
			case sb != nil:
				e = bc
			default:
				e = st.baseCust(c, l)
			}
			if st.violate&bit != 0 && c == st.atkIdx[l] {
				e = st.selOf(c, l)
			}
			if e.len >= 0 {
				e = exportCand(c, e, st.atkIdx[l], st.keeps[l])
			}
		}
		if e.len < 0 || (e.via && (at == st.atkIdx[l] || rejAt&bit != 0)) {
			continue
		}
		if betterCand(g, e, bests[l]) {
			bests[l] = e
		}
	}
}

// recomputeProvMask rebuilds at's provider entry for every lane in m
// from its providers' phase-3 offers (their overall best routes, exported
// downward), with the same per-AS hoisting as offerMask: each provider's
// lane record, lane rows and shared-baseline selection load once.
func (st *batchDeltaState) recomputeProvMask(at int32, m uint64, bests *[batchMaxLanes]cand) {
	g := st.g
	for mm := m; mm != 0; {
		l := bits.TrailingZeros64(mm)
		mm &^= 1 << uint(l)
		bests[l] = cand{len: -1}
	}
	rejAt := st.rej[at]
	for _, p := range g.ProvidersIdx(at) {
		r := &st.dl[p]
		var tc, tp, tv uint64
		if r.gen == st.epoch {
			tc, tp, tv = r.tcust, r.tpeer, r.tprov
		}
		row := int(p) * st.stride
		crow := st.cust[row:]
		prow := st.peer[row:]
		vrow := st.prov[row:]
		sb := st.shared
		var bclass Class
		bsel := cand{len: -1}
		if sb != nil {
			bclass = sb.Class[p]
			if bclass != ClassNone {
				bsel = cand{len: sb.Len[p], parent: sb.Parent[p], prep: sb.Prep[p]}
			}
		}
		for mm := m; mm != 0; {
			l := bits.TrailingZeros64(mm)
			bit := uint64(1) << uint(l)
			mm &^= bit
			var e cand
			if p == st.origins[l] {
				e = st.originSeed(at, l)
			} else {
				var sel cand
				if sb == nil {
					sel = st.selOf(p, l)
				} else {
					// selOf with the baseline reads hoisted: customer >
					// peer > provider, each entry authoritative only under
					// its touch bit, baseline-derived otherwise.
					switch {
					case tc&bit != 0:
						sel = crow[l]
					case bclass == ClassCustomer:
						sel = bsel
					default:
						sel = cand{len: -1}
					}
					if sel.len < 0 {
						if tp&bit != 0 {
							sel = prow[l]
						} else if bclass == ClassPeer {
							sel = bsel
						}
					}
					if sel.len < 0 {
						if tv&bit != 0 {
							sel = vrow[l]
						} else if bclass == ClassProvider {
							sel = bsel
						}
					}
				}
				if sel.len < 0 {
					continue
				}
				e = exportCand(p, sel, st.atkIdx[l], st.keeps[l])
			}
			if e.len < 0 || (e.via && (at == st.atkIdx[l] || rejAt&bit != 0)) {
				continue
			}
			if betterCand(g, e, bests[l]) {
				bests[l] = e
			}
		}
	}
}

// selMask fills sels/classes with u's current best route and its table
// of origin for every lane in m (ClassNone when u has no route), with
// u's lane record, lane rows and shared-baseline entry loaded once.
func (st *batchDeltaState) selMask(u int32, m uint64, sels *[batchMaxLanes]cand, classes *[batchMaxLanes]Class) {
	r := &st.dl[u]
	var tc, tp, tv uint64
	if r.gen == st.epoch {
		tc, tp, tv = r.tcust, r.tpeer, r.tprov
	}
	row := int(u) * st.stride
	crow := st.cust[row:]
	prow := st.peer[row:]
	vrow := st.prov[row:]
	sb := st.shared
	var bclass Class
	bsel := cand{len: -1}
	if sb != nil {
		bclass = sb.Class[u]
		if bclass != ClassNone {
			bsel = cand{len: sb.Len[u], parent: sb.Parent[u], prep: sb.Prep[u]}
		}
	}
	for mm := m; mm != 0; {
		l := bits.TrailingZeros64(mm)
		bit := uint64(1) << uint(l)
		mm &^= bit
		if sb == nil {
			if c := st.custOf(u, l); c.len >= 0 {
				sels[l], classes[l] = c, ClassCustomer
				continue
			}
			if c := st.peerOf(u, l); c.len >= 0 {
				sels[l], classes[l] = c, ClassPeer
				continue
			}
			if c := st.provOf(u, l); c.len >= 0 {
				sels[l], classes[l] = c, ClassProvider
				continue
			}
			sels[l], classes[l] = cand{len: -1}, ClassNone
			continue
		}
		var sel cand
		cls := ClassCustomer
		switch {
		case tc&bit != 0:
			sel = crow[l]
		case bclass == ClassCustomer:
			sel = bsel
		default:
			sel = cand{len: -1}
		}
		if sel.len < 0 {
			cls = ClassPeer
			if tp&bit != 0 {
				sel = prow[l]
			} else if bclass == ClassPeer {
				sel = bsel
			}
		}
		if sel.len < 0 {
			cls = ClassProvider
			if tv&bit != 0 {
				sel = vrow[l]
			} else if bclass == ClassProvider {
				sel = bsel
			}
		}
		if sel.len < 0 {
			cls = ClassNone
		}
		sels[l], classes[l] = sel, cls
	}
}

// seedAll marks each lane's attacker neighborhood dirty — every offer
// the attacker makes differs from its baseline offer, and nothing else
// changes at phase 0 (the serial engine's seed, per lane).
func (st *batchDeltaState) seedAll() {
	g := st.g
	for l := 0; l < st.w; l++ {
		a := st.atkIdx[l]
		if st.custOf(a, l).len >= 0 || st.violate&(1<<uint(l)) != 0 {
			for _, p := range g.ProvidersIdx(a) {
				st.markCust(p, l)
			}
			for _, w := range g.PeersIdx(a) {
				st.markPeer(w, l)
			}
		}
		for _, c := range g.CustomersIdx(a) {
			st.markProv(c, l)
		}
	}
}

// run walks the three phases over the union dirty cone, one shared
// worklist pass per phase serving every lane in the chunk.
func (st *batchDeltaState) run() {
	g := st.g
	var bests, sels [batchMaxLanes]cand
	var classes [batchMaxLanes]Class

	// Phase 1 (up): ascending walk over the shared dirty-customer bitset
	// with per-word re-poll. Draining AS u recomputes every queued
	// lane's customer entry; marks from the drain land only at strictly
	// higher indices (providers) or at u's own peer/provider masks, so
	// u's customer masks are final when the cursor reaches it — in every
	// lane.
	words := st.dirtyCust
	for wi := 0; wi < len(words); wi++ {
		var done uint64
		for {
			wbits := words[wi] &^ done
			if wbits == 0 {
				break
			}
			b := bits.TrailingZeros64(wbits)
			done |= 1 << uint(b)
			u := int32(wi<<6 | b)
			r := &st.dl[u]
			row := st.cust[int(u)*st.stride:]
			provs := g.ProvidersIdx(u)
			peers := g.PeersIdx(u)
			st.recomputeCustMask(u, r.dcust, &bests)
			var changed, emptied uint64
			for m := r.dcust; m != 0; {
				l := bits.TrailingZeros64(m)
				bit := uint64(1) << uint(l)
				m &^= bit
				old := st.baseCust(u, l)
				nw := bests[l]
				row[l] = nw
				if candEq(nw, old) {
					continue
				}
				changed |= bit
				if nw.len < 0 {
					emptied |= bit
				}
			}
			r.tcust |= r.dcust
			if changed != 0 {
				// u's phase-1/2 offers changed; its selection may change
				// too, and an emptied customer entry can expose a hidden
				// peer entry. One mask mark per neighbor serves every
				// changed lane.
				for _, p := range provs {
					st.markCustMask(p, changed)
				}
				for _, w := range peers {
					st.markPeerMask(w, changed)
				}
				st.markProvMask(u, changed)
				if emptied != 0 {
					st.markPeerMask(u, emptied)
				}
			}
		}
	}

	// Phase 2 (across): order-free — peer entries depend only on
	// customer entries, which are final, and no new dirty-peer marks are
	// produced here.
	for wi, word := range st.dirtyPeer {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			u := int32(wi<<6 | b)
			r := &st.dl[u]
			row := st.peer[int(u)*st.stride:]
			st.recomputePeerMask(u, r.dpeer, &bests)
			var changed uint64
			for m := r.dpeer; m != 0; {
				l := bits.TrailingZeros64(m)
				bit := uint64(1) << uint(l)
				m &^= bit
				var old cand
				if st.lanes[l].Baseline.Class[u] == ClassPeer {
					old = st.baseSel(u, l)
				} else {
					old.len = -1
				}
				nw := bests[l]
				row[l] = nw
				if !candEq(nw, old) {
					changed |= bit
				}
			}
			r.tpeer |= r.dpeer
			if changed != 0 {
				st.markProvMask(u, changed)
			}
		}
	}

	// Phase 3 (down): descending walk with per-word re-poll from the
	// high end. Selection changes push dirty-provider marks to customers
	// — strictly lower indices, always ahead of the descending cursor.
	words = st.dirtyProv
	for wi := len(words) - 1; wi >= 0; wi-- {
		var done uint64
		for {
			wbits := words[wi] &^ done
			if wbits == 0 {
				break
			}
			b := 63 - bits.LeadingZeros64(wbits)
			done |= 1 << uint(b)
			u := int32(wi<<6 | b)
			r := &st.dl[u]
			row := st.prov[int(u)*st.stride:]
			custs := g.CustomersIdx(u)
			st.recomputeProvMask(u, r.dprov, &bests)
			for m := r.dprov; m != 0; {
				l := bits.TrailingZeros64(m)
				m &^= 1 << uint(l)
				row[l] = bests[l]
			}
			r.tprov |= r.dprov
			st.selMask(u, r.dprov, &sels, &classes)
			sbase := cand{len: -1}
			if sb := st.shared; sb != nil && sb.Class[u] != ClassNone {
				sbase = cand{len: sb.Len[u], parent: sb.Parent[u], prep: sb.Prep[u]}
			}
			var changed uint64
			for m := r.dprov; m != 0; {
				l := bits.TrailingZeros64(m)
				bit := uint64(1) << uint(l)
				m &^= bit
				base := sbase
				if st.shared == nil {
					base = st.baseSel(u, l)
				}
				if !candEq(sels[l], base) {
					changed |= bit
				}
			}
			if changed != 0 {
				for _, c := range custs {
					st.markProvMask(c, changed)
				}
			}
		}
	}
}

// finish writes the cone's outcomes over each lane's baseline copy.
// Only ASes that reached phase 3 can have a changed selection; touched
// lists exactly the chunk's stamped records, so this is O(union cone).
func (st *batchDeltaState) finish(out []*Result, touched []int32) {
	var sels [batchMaxLanes]cand
	var classes [batchMaxLanes]Class
	for _, u := range touched {
		r := &st.dl[u]
		// Record which lanes' rows get written, in touched order: the
		// next call repairs each reused slot by replaying exactly these.
		st.s.btouchedM = append(st.s.btouchedM, r.tprov)
		m := r.tprov
		if m == 0 {
			continue
		}
		st.selMask(u, m, &sels, &classes)
		for m != 0 {
			l := bits.TrailingZeros64(m)
			m &^= 1 << uint(l)
			res := out[l]
			sel := sels[l]
			if sel.len < 0 {
				res.Class[u] = ClassNone
				res.Len[u] = -1
				res.Prep[u] = 0
				res.Parent[u] = -1
				res.Via[u] = false
				continue
			}
			res.Class[u] = classes[l]
			res.Len[u] = sel.len
			res.Prep[u] = sel.prep
			res.Parent[u] = sel.parent
			res.Via[u] = sel.via
		}
	}
}

// PropagateAttackDeltaBatch computes the stable attack outcome of K
// independent interception scenarios by incremental recomputation
// against their memoized baselines, walking up to MaxLanes attacker
// dirty cones under one shared frontier per chunk. Lane i's Result is
// bitwise-equal to PropagateAttackDelta(g, lanes[i].Ann, lanes[i].Atk,
// lanes[i].Baseline, ...) — batching changes the schedule, never the
// outcome (pinned by the batched-delta differential suite).
//
// Every lane needs a non-nil Baseline on g for its announcement's
// origin, with the attacker reachable in it; any violation fails the
// whole batch with a lane-indexed error (unreachable attackers wrap
// ErrUnreachableAttacker — sweep drivers pre-filter those draws with
// Baseline.Reachable, so a batch never mixes skippable and fatal
// cases). Baselines must not be borrowed from s's own result slots
// (those are invalidated by this very call). Sibling-bearing topologies
// are refused (ErrSiblingsNeedFullKernel).
//
// The returned BatchResult borrows its Results from s (BatchScratch
// ownership contract); with s == nil a private scratch is allocated and
// kept alive by the results. Warmed calls are allocation-free
// (TestPropagateAttackDeltaBatchZeroAlloc), and result setup repairs
// slots reused with the same baseline in consecutive calls in
// O(previous cone) instead of O(n).
func PropagateAttackDeltaBatch(g *topology.Graph, lanes []AttackLane, s *BatchScratch) (*BatchResult, error) {
	if len(lanes) == 0 {
		return nil, errors.New("routing: PropagateAttackDeltaBatch needs at least one lane")
	}
	if g.HasSiblings() {
		return nil, ErrSiblingsNeedFullKernel
	}
	for i := range lanes {
		if err := lanes[i].Ann.Validate(g); err != nil {
			return nil, fmt.Errorf("routing: delta batch lane %d: %w", i, err)
		}
		if err := lanes[i].Atk.Validate(g, lanes[i].Ann); err != nil {
			return nil, fmt.Errorf("routing: delta batch lane %d: %w", i, err)
		}
		if lanes[i].Atk.Kind != AttackASPP {
			return nil, fmt.Errorf("routing: delta batch lane %d: %w", i, errNeedsStrip)
		}
		b := lanes[i].Baseline
		if b == nil {
			return nil, fmt.Errorf("routing: delta batch lane %d: nil baseline (warm it via PropagateBatch or the baseline cache first)", i)
		}
		if b.g != g || b.Origin() != lanes[i].Ann.Origin {
			return nil, fmt.Errorf("routing: delta batch lane %d: baseline is for a different graph or origin", i)
		}
		atkIdx, _ := g.Index(lanes[i].Atk.AS)
		if b.Class[atkIdx] == ClassNone {
			return nil, fmt.Errorf("routing: delta batch lane %d: %w", i, ErrUnreachableAttacker)
		}
	}
	if s == nil {
		s = NewBatchScratch()
	}
	// A baseline borrowed from this scratch's own result slots would be
	// overwritten mid-call (and its stable pointer would defeat the
	// repair identity check across calls); reject it outright.
	for i := range lanes {
		for j := range s.results {
			if lanes[i].Baseline == &s.results[j] {
				return nil, fmt.Errorf("routing: delta batch lane %d: baseline borrowed from the same BatchScratch (Clone it first)", i)
			}
		}
	}
	kc := len(lanes)
	if kc > batchMaxLanes {
		kc = batchMaxLanes
	}
	n := g.NumASes()
	s.grow(n, kc)
	s.ensureDeltaBatch()
	s.ensureResults(len(lanes))
	s.ensureLaneMeta(n, len(lanes))
	s.callGen++

	// Result setup, copy-on-write per lane: a slot that mirrored the
	// same baseline in the immediately previous call is repaired by
	// replaying exactly the rows its lane wrote (its chunk's bprevT rows
	// whose recorded lane mask carries the slot's bit); anything else
	// falls back to the full O(n) baseline copy. PropagateBatch reusing
	// a slot invalidates the repair naturally: it detaches Via (nil).
	for start := 0; start < len(lanes); start += batchMaxLanes {
		end := start + batchMaxLanes
		if end > len(lanes) {
			end = len(lanes)
		}
		ci := start >> 6 // the chunk these slots rode in the previous call
		var repair uint64
		for i := start; i < end; i++ {
			b := lanes[i].Baseline
			res := &s.results[i]
			if s.laneBase[i] == b && s.laneGen[i] == s.callGen-1 && res.g == g && res.Via != nil &&
				ci+1 < len(s.bprevStarts) {
				repair |= 1 << uint(i-start)
			} else {
				deltaResultInto(res, b, s.laneVia[i])
				s.laneBase[i] = b
			}
			s.laneGen[i] = s.callGen
		}
		if repair == 0 {
			continue
		}
		// One pass over the chunk's previous cone rows, restoring each
		// row only in the lanes that actually wrote it.
		lo, hi := s.bprevStarts[ci], s.bprevStarts[ci+1]
		rows := s.bprevT[lo:hi]
		masks := s.bprevM[lo:hi]
		for j, u := range rows {
			for mm := masks[j] & repair; mm != 0; {
				l := bits.TrailingZeros64(mm)
				mm &^= 1 << uint(l)
				b := s.laneBase[start+l]
				res := &s.results[start+l]
				res.Class[u] = b.Class[u]
				res.Len[u] = b.Len[u]
				res.Prep[u] = b.Prep[u]
				res.Parent[u] = b.Parent[u]
				res.Via[u] = false
			}
		}
	}

	s.btouched = s.btouched[:0]
	s.btouchedM = s.btouchedM[:0]
	s.btouchedStarts = s.btouchedStarts[:0]
	for start := 0; start < len(lanes); start += batchMaxLanes {
		end := start + batchMaxLanes
		if end > len(lanes) {
			end = len(lanes)
		}
		var st batchDeltaState
		chunkStart := len(s.btouched)
		s.btouchedStarts = append(s.btouchedStarts, int32(chunkStart))
		st.init(g, lanes[start:end], s)
		st.seedAll()
		st.run()
		st.finish(s.ptrs[start:end], s.btouched[chunkStart:])
	}
	s.btouchedStarts = append(s.btouchedStarts, int32(len(s.btouched)))
	// The cone rows and masks just written become the repair lists for
	// the next call; the old storage is recycled for that call's appends.
	s.btouched, s.bprevT = s.bprevT, s.btouched
	s.btouchedM, s.bprevM = s.bprevM, s.btouchedM
	s.btouchedStarts, s.bprevStarts = s.bprevStarts, s.btouchedStarts
	s.out.Lanes = s.ptrs[:len(lanes)]
	return &s.out, nil
}

// batchLaneBudgetBytes is the lane-table working-set budget
// AdaptiveLaneWidth sizes against: the per-(AS, lane) candidate, export
// and staging rows the shared walk streams. 16 MiB keeps the hot rows
// within a typical shared L3 slice while leaving room for the baseline
// Results the delta reads flow through.
const batchLaneBudgetBytes = 16 << 20

// batchBytesPerLaneAS is the per-(AS, lane) footprint of the lane
// tables: three cand entries (cust/peer/bdprov, 12 B each), the split
// export row (ekeys 8 B + eprep 2 B) and the four staging rows (11 B),
// rounded up to 64 for headroom.
const batchBytesPerLaneAS = 64

// AdaptiveLaneWidth returns the lane width K (1..MaxLanes) whose lane
// tables for an n-AS graph fit the batch memory budget — the -batch
// auto policy. Small graphs saturate at MaxLanes (n=4000 → 64); at
// Internet scale the width narrows so the working set stays
// cache-resident instead of thrashing (n=80000 → 3). Deterministic in n
// alone, so sweeps at a fixed topology always pick the same width.
func AdaptiveLaneWidth(n int) int {
	if n <= 0 {
		return MaxLanes
	}
	k := batchLaneBudgetBytes / (n * batchBytesPerLaneAS)
	if k > MaxLanes {
		k = MaxLanes
	}
	if k < 1 {
		k = 1
	}
	return k
}
