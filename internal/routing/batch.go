package routing

import (
	"errors"
	"fmt"
	"math/bits"

	"aspp/internal/topology"
)

// batchMaxLanes is the widest lane group one shared frontier walk carries:
// each lane owns one bit in the per-AS lane masks, so a uint64 bounds a
// group at 64. Wider batches run as consecutive chunks on the same
// BatchScratch (each chunk opens its own epoch).
const batchMaxLanes = 64

// laneRec is one AS's fused lane state for a batched propagation: which of
// the chunk's lanes have a live customer-table entry here, which have a
// live peer-table entry, and which originate here — plus the epoch stamp
// that implements O(1) reset, exactly as nodeRec does for the serial
// engine. The candidate payloads themselves live in the BatchScratch's
// lane-major tables; a mask bit is the lane's liveness sentinel (the
// serial engine's len = -1), so the tables need no reset at all.
type laneRec struct {
	cust uint64 // lanes with a live customer-table entry at this AS
	peer uint64 // lanes with a live peer-table entry at this AS
	orig uint64 // lanes whose origin is this AS
	gen  uint32
	_    uint32 // pad to 32 bytes: two records per cache line
}

// BatchScratch is reusable state for PropagateBatch, the batched analogue
// of Scratch. It carries up to batchMaxLanes candidate lanes per AS in
// struct-of-arrays form: entry (u, l) of the customer/peer/export tables
// lives at u*k+l for lane stride k, so one AS's lanes are one contiguous
// row — the unit the shared walk and the phase-3 provider sweep stream
// over.
//
// Ownership contract (mirrors Scratch):
//
//   - A BatchScratch may be used by ONE goroutine at a time.
//   - The Results inside the returned BatchResult are borrowed from the
//     BatchScratch and stay valid until the next PropagateBatch call on
//     it; Clone detaches a lane that must outlive the scratch.
//
// Capacity growth — in AS count and in lane stride — is geometric
// (max(need, 2×cap)), so a sweep that alternates topology sizes or lane
// widths reallocates O(log) times, not per call. The zero value is ready
// to use.
type BatchScratch struct {
	n int // AS capacity the tables are sized for
	k int // lane stride (per-chunk lane capacity, <= batchMaxLanes)

	// lanes is the per-AS lane-mask state; epoch is the current chunk's
	// stamp. Starting a chunk bumps epoch instead of clearing lanes, so
	// reset is O(1) (see beginChunk).
	lanes []laneRec
	epoch uint32

	// cust/peer hold the candidate payloads; ekeys/eprep are the phase-3
	// export table split SoA-style — packed uint64 comparison keys in
	// their own contiguous rows (the provider pull streams ONLY keys, 8
	// bytes per lane) with the prepend payload alongside and the parent
	// implied by the row's owner. All lane-major with stride k.
	cust  []cand
	peer  []cand
	ekeys []uint64
	eprep []int16

	// scls/slen/sprp/spar stage the per-AS outcomes row-major during the
	// descending phase-3 sweep, so each AS issues one short sequential
	// write burst instead of scattering into K results × 4 arrays (256
	// store streams at K=64 thrash the TLB). A cache-blocked transpose
	// ships them into the Result columns once per chunk.
	scls []Class
	slen []int32
	sprp []int16
	spar []int32

	// custSet/peerSet are the shared frontier bitsets: bit u is the OR of
	// the corresponding lane-mask across lanes, so one worklist walk
	// serves every lane in the chunk.
	custSet []uint64
	peerSet []uint64

	// results are the per-lane result slots; ptrs holds one stable pointer
	// per slot so BatchResult.Lanes can be resliced without allocating.
	results []Result
	ptrs    []*Result
	out     BatchResult

	// Batched delta-engine state (PropagateAttackDeltaBatch; see
	// batch_delta.go). Allocated lazily by ensureDeltaBatch so a
	// baseline-only BatchScratch never pays for it. dlanes mirrors lanes
	// for the delta walk's per-AS dirty/touched lane masks; bdprov holds
	// the recomputed provider entries (cust/peer payloads share the batch
	// tables above — both engines read entries only under their own mask
	// bits, so the payloads never collide). provSet is the phase-3 shared
	// frontier bitset (custSet/peerSet double as the dirty customer/peer
	// frontiers). brej holds per-AS lane rejection masks, reset by
	// replaying brejList; btouched lists the current call's cone rows
	// (btouchedM the per-row lane masks finish wrote, btouchedStarts the
	// per-chunk row offsets) and the three swap with their bprev
	// counterparts each call so the next call can repair each result slot
	// by replaying exactly the rows its lane wrote.
	dlanes         []dlaneRec
	bdprov         []cand
	provSet        []uint64
	brej           []uint64
	brejList       []int32
	btouched       []int32
	btouchedM      []uint64
	btouchedStarts []int32
	bprevT         []int32
	bprevM         []uint64
	bprevStarts    []int32

	// laneVia/laneBase/laneGen are per-result-slot delta metadata: the
	// slot's Via storage, the baseline object it mirrors outside the last
	// cone, and the delta-batch call generation that last wrote it (the
	// repair fast path needs slot continuity across consecutive calls).
	laneVia  [][]bool
	laneBase []*Result
	laneGen  []uint64
	callGen  uint64
}

// NewBatchScratch returns an empty BatchScratch; it sizes itself on first
// use.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// grow ensures the lane tables cover n ASes at lane stride k, growing each
// dimension geometrically (the stride is capped at batchMaxLanes — wider
// batches chunk). Fresh records carry zero gen stamps, which are stale by
// construction once any chunk has opened an epoch.
func (s *BatchScratch) grow(n, k int) {
	if n <= s.n && k <= s.k {
		return
	}
	if n > s.n {
		if c := 2 * s.n; c > n {
			n = c
		}
	} else {
		n = s.n
	}
	if k > s.k {
		if c := 2 * s.k; c > k {
			k = c
		}
		if k > batchMaxLanes {
			k = batchMaxLanes
		}
	} else {
		k = s.k
	}
	s.lanes = make([]laneRec, n)
	s.cust = make([]cand, n*k)
	s.peer = make([]cand, n*k)
	s.ekeys = make([]uint64, n*k)
	s.eprep = make([]int16, n*k)
	s.scls = make([]Class, n*k)
	s.slen = make([]int32, n*k)
	s.sprp = make([]int16, n*k)
	s.spar = make([]int32, n*k)
	s.custSet = make([]uint64, (n+63)>>6)
	s.peerSet = make([]uint64, (n+63)>>6)
	s.n, s.k = n, k
}

// ensureResults sizes the result slots for a K-lane batch, geometrically.
// Reallocating rebuilds ptrs so each slot keeps exactly one stable pointer.
func (s *BatchScratch) ensureResults(k int) {
	if cap(s.results) < k {
		c := k
		if d := 2 * cap(s.results); d > c {
			c = d
		}
		s.results = make([]Result, c)
		s.ptrs = make([]*Result, c)
		for i := range s.results {
			s.ptrs[i] = &s.results[i]
		}
	}
	s.results = s.results[:cap(s.results)]
	s.ptrs = s.ptrs[:len(s.results)]
}

// beginChunk opens a fresh epoch for one lane chunk, invalidating every
// lane record from prior chunks in O(1). On uint32 wraparound stale stamps
// could alias the new epoch, so every stamp is hard-cleared and the epoch
// restarts at 1 (same policy as Scratch.beginPropagation).
func (s *BatchScratch) beginChunk() uint32 {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.lanes {
			s.lanes[i].gen = 0
		}
		for i := range s.dlanes {
			s.dlanes[i].gen = 0
		}
		s.epoch = 1
	}
	return s.epoch
}

// BatchResult holds the outcomes of one PropagateBatch call: Lanes[i] is
// the stable routing outcome for anns[i], bitwise-equal to what a serial
// PropagateScratch of that announcement computes. The Results are borrowed
// from the BatchScratch that ran the batch — valid until its next
// PropagateBatch call; Clone a lane to keep it longer.
type BatchResult struct {
	Lanes []*Result
}

// batchState carries one <=64-lane chunk over a BatchScratch's lane
// tables; like fastState it lives on the caller's stack. A record's lane
// masks are live only when its gen stamp equals epoch — anything else
// reads as all-empty.
type batchState struct {
	g    *topology.Graph
	anns []Announcement

	w       int    // lanes in this chunk
	stride  int    // lane-major row stride (the scratch's k)
	active  uint64 // mask of the chunk's lanes: (1<<w)-1
	uniform uint64 // lanes with neither PerNeighbor nor Withhold
	origins [batchMaxLanes]int32

	lanes   []laneRec
	epoch   uint32
	cust    []cand
	peer    []cand
	ekeys   []uint64
	eprep   []int16
	scls    []Class
	slen    []int32
	sprp    []int16
	spar    []int32
	custSet []uint64
	peerSet []uint64
}

// init prepares st for one chunk on s's lane tables, opening a fresh epoch
// and clearing the shared frontier bitsets.
func (st *batchState) init(g *topology.Graph, anns []Announcement, s *BatchScratch) {
	n := g.NumASes()
	st.g = g
	st.anns = anns
	st.w = len(anns)
	st.stride = s.k
	st.epoch = s.beginChunk()
	st.lanes = s.lanes[:n]
	st.cust = s.cust[:n*s.k]
	st.peer = s.peer[:n*s.k]
	st.ekeys = s.ekeys[:n*s.k]
	st.eprep = s.eprep[:n*s.k]
	st.scls = s.scls[:n*s.k]
	st.slen = s.slen[:n*s.k]
	st.sprp = s.sprp[:n*s.k]
	st.spar = s.spar[:n*s.k]
	st.custSet = s.custSet[:(n+63)>>6]
	st.peerSet = s.peerSet[:(n+63)>>6]
	for i := range st.custSet {
		st.custSet[i] = 0
		st.peerSet[i] = 0
	}
	if st.w == batchMaxLanes {
		st.active = ^uint64(0)
	} else {
		st.active = 1<<uint(st.w) - 1
	}
	st.uniform = 0
	for l := range anns {
		o, _ := g.Index(anns[l].Origin)
		st.origins[l] = o
		if len(anns[l].PerNeighbor) == 0 && len(anns[l].Withhold) == 0 {
			st.uniform |= 1 << uint(l)
		}
	}
}

// markOrigin stamps lane l's origin bit at AS o. Duplicate origins across
// lanes simply OR into the same record.
func (st *batchState) markOrigin(o int32, l uint) {
	r := &st.lanes[o]
	if r.gen != st.epoch {
		r.gen = st.epoch
		r.cust, r.peer = 0, 0
		r.orig = 1 << l
		return
	}
	r.orig |= 1 << l
}

// seedCand builds lane ann's phase-0 seed toward neighbor nbr, honoring
// per-neighbor λ and withheld sessions (the serial engine's seed closure).
func (st *batchState) seedCand(ann *Announcement, o, nbr int32) (cand, bool) {
	asn := st.g.ASNAt(nbr)
	if ann.Withhold[asn] {
		return cand{}, false
	}
	lam := int32(ann.lambdaFor(asn))
	return cand{len: lam, prep: int16(lam), parent: o}, true
}

// considerCust offers candidate c to lane l's customer entry at AS at. The
// first offer a record sees in an epoch rewrites its masks without reading
// them; the first offer a LANE sees sets its mask bit and writes the slot
// without comparing (the serial engine's stale-stamp fast path, per lane);
// later offers compare via betterCand. Admissibility is only the
// origin-never-adopts rule — batched propagation carries no attacker.
func (st *batchState) considerCust(at int32, l uint, c cand) {
	if at == st.origins[l] {
		return
	}
	r := &st.lanes[at]
	bit := uint64(1) << l
	slot := &st.cust[int(at)*st.stride+int(l)]
	if r.gen != st.epoch {
		r.gen = st.epoch
		r.cust = bit
		r.peer, r.orig = 0, 0
		*slot = c
		st.custSet[at>>6] |= 1 << uint(at&63)
		return
	}
	if r.cust&bit == 0 {
		r.cust |= bit
		*slot = c
		st.custSet[at>>6] |= 1 << uint(at&63)
		return
	}
	if betterCand(st.g, c, *slot) {
		*slot = c
		st.custSet[at>>6] |= 1 << uint(at&63)
	}
}

// considerPeer offers candidate c to lane l's peer entry at AS at.
func (st *batchState) considerPeer(at int32, l uint, c cand) {
	if at == st.origins[l] {
		return
	}
	r := &st.lanes[at]
	bit := uint64(1) << l
	slot := &st.peer[int(at)*st.stride+int(l)]
	if r.gen != st.epoch {
		r.gen = st.epoch
		r.peer = bit
		r.cust, r.orig = 0, 0
		*slot = c
		st.peerSet[at>>6] |= 1 << uint(at&63)
		return
	}
	if r.peer&bit == 0 {
		r.peer |= bit
		*slot = c
		st.peerSet[at>>6] |= 1 << uint(at&63)
		return
	}
	if betterCand(st.g, c, *slot) {
		*slot = c
		st.peerSet[at>>6] |= 1 << uint(at&63)
	}
}

// seedAll runs phase 0 for every lane: each origin announces to its
// providers and peers with per-neighbor λ. Uniform lanes additionally
// pre-store the origin's downward seed in the export table so the phase-3
// provider sweep reads the origin like any other provider; non-uniform
// lanes compute per-receiver seeds during the sweep instead.
func (st *batchState) seedAll() {
	g := st.g
	for l := 0; l < st.w; l++ {
		ann := &st.anns[l]
		o := st.origins[l]
		st.markOrigin(o, uint(l))
		for _, p := range g.ProvidersIdx(o) {
			if c, ok := st.seedCand(ann, o, p); ok {
				st.considerCust(p, uint(l), c)
			}
		}
		for _, w := range g.PeersIdx(o) {
			if c, ok := st.seedCand(ann, o, w); ok {
				st.considerPeer(w, uint(l), c)
			}
		}
		if st.uniform&(1<<uint(l)) != 0 {
			lam := int32(ann.Prepend)
			st.ekeys[int(o)*st.stride+l] = expKey(lam, g.ASNAt(o))
			st.eprep[int(o)*st.stride+l] = int16(lam)
		}
	}
}

// walk runs the fused phases 1+2 for every lane over ONE worklist pass:
// the shared custSet bit for AS u is the OR of the lanes' liveness, and
// processing u drains its whole lane row. The serial engine's ordering
// argument extends lane-wise: dense indices are up-topological, so every
// push (provider or peer export of a customer route) lands at a strictly
// higher index than the pusher — ahead of the ascending cursor. When the
// walk reaches u, EVERY lane's customer entry at u is final, because all
// of u's potential pushers (lower indices) have been drained in every
// lane; the per-word re-poll then catches same-word bits set ahead of the
// cursor, exactly as in the serial walk. Peer entries are written here but
// only read in phase 3.
func (st *batchState) walk() {
	g := st.g
	words := st.custSet
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
			provs := g.ProvidersIdx(u)
			peers := g.PeersIdx(u)
			row := st.cust[int(u)*st.stride:]
			// The shared bit is only ever set on a lane write, so the
			// record is stamped and its cust mask lists the live lanes.
			for m := st.lanes[u].cust; m != 0; {
				l := uint(bits.TrailingZeros64(m))
				m &^= 1 << l
				c := row[l]
				exp := cand{len: c.len + 1, prep: c.prep, parent: u}
				for _, p := range provs {
					st.considerCust(p, l, exp)
				}
				for _, pr := range peers {
					st.considerPeer(pr, l, exp)
				}
			}
		}
	}
}

// finish runs phase 3 — one descending pull scan shared by all lanes —
// and writes each lane's result rows. Per AS the lane masks split the
// chunk into origin lanes, structural customer/peer winners, and the rest,
// which sweep the providers' contiguous export rows with one packed-key
// compare per (provider, lane). Every active lane's export slot at every
// non-origin AS is written (noExport when unreachable), so lower-indexed
// customers always read current-epoch data.
func (st *batchState) finish(out []*Result) {
	g := st.g
	stride := st.stride
	n := int32(len(st.lanes))
	// The running minima live outside the per-AS loop: zeroing fresh
	// arrays per AS (duffzero) costs more than the pull itself on wide
	// chunks. Only the lanes a sweep consumes are re-initialized per AS.
	// bestKey holds the winning packed key per lane; bestSrc the provider
	// it came from (the export table does not store parents — a row's
	// owner IS the parent); bestPrep the winner's prepend, captured at
	// win time so the writeback never gathers from scattered eprep rows.
	var bestKey [batchMaxLanes]uint64
	var bestSrc [batchMaxLanes]int32
	var bestPrep [batchMaxLanes]int16
	for u := n - 1; u >= 0; u-- {
		var cm, pm, om uint64
		if r := &st.lanes[u]; r.gen == st.epoch {
			cm, pm, om = r.cust, r.peer, r.orig
		}
		base := int(u) * stride
		ekrow := st.ekeys[base : base+st.w]
		eprow := st.eprep[base : base+st.w]
		scl := st.scls[base : base+st.w]
		sln := st.slen[base : base+st.w]
		spr := st.sprp[base : base+st.w]
		spa := st.spar[base : base+st.w]
		uASN := g.ASNAt(u)

		// Origin lanes: the origin's own row, reachable at length 0. Its
		// export was pre-stored at seeding (uniform) or is computed by
		// each reader (non-uniform), so the export row stays untouched.
		for m := om; m != 0; {
			l := uint(bits.TrailingZeros64(m))
			m &^= 1 << l
			scl[l] = ClassNone
			sln[l] = 0
			spr[l] = 0
			spa[l] = -1
		}
		// Customer winners.
		for m := cm; m != 0; {
			l := uint(bits.TrailingZeros64(m))
			m &^= 1 << l
			sel := st.cust[base+int(l)]
			ekrow[l] = expKey(sel.len+1, uASN)
			eprow[l] = sel.prep
			scl[l] = ClassCustomer
			sln[l] = sel.len
			spr[l] = sel.prep
			spa[l] = sel.parent
		}
		// Peer winners (a live customer entry hides the peer table).
		for m := pm &^ cm; m != 0; {
			l := uint(bits.TrailingZeros64(m))
			m &^= 1 << l
			sel := st.peer[base+int(l)]
			ekrow[l] = expKey(sel.len+1, uASN)
			eprow[l] = sel.prep
			scl[l] = ClassPeer
			sln[l] = sel.len
			spr[l] = sel.prep
			spa[l] = sel.parent
		}
		rest := st.active &^ (cm | pm | om)
		if rest == 0 {
			continue
		}
		// Provider pull for the remaining lanes: each provider contributes
		// its contiguous key row, ranked by the packed compare that
		// subsumes betterCand and the emptiness check. Keys are unique
		// across providers (they embed the exporter's ASN), so strict <
		// needs no tie-break.
		provs := g.ProvidersIdx(u)
		if rest&^st.uniform == 0 {
			// All-uniform sweep: every active lane's export slot at every
			// non-origin AS is current-epoch (uniform origin lanes were
			// pre-stored at seeding), so whole key rows stream through a
			// dense, branch-light loop. The first provider seeds the
			// minima outright (copy beats a noExport fill plus a full
			// compare pass); lanes outside rest accumulate junk minima,
			// but only rest lanes are consumed below.
			bk := bestKey[:st.w]
			bs := bestSrc[:st.w]
			bp := bestPrep[:st.w]
			if len(provs) == 0 {
				for l := range bk {
					bk[l] = noExport
				}
			} else {
				p0 := provs[0]
				pb := int(p0) * stride
				copy(bk, st.ekeys[pb:pb+st.w])
				copy(bp, st.eprep[pb:pb+st.w])
				for l := range bs {
					bs[l] = p0
				}
				for _, p := range provs[1:] {
					pb := int(p) * stride
					krow := st.ekeys[pb : pb+st.w]
					prow := st.eprep[pb : pb+st.w]
					for l, k := range krow {
						if k < bk[l] {
							bk[l] = k
							bs[l] = p
							bp[l] = prow[l]
						}
					}
				}
			}
		} else {
			for m := rest; m != 0; {
				l := uint(bits.TrailingZeros64(m))
				m &^= 1 << l
				bestKey[l] = noExport
			}
			for _, p := range provs {
				pb := int(p) * stride
				var porig uint64
				if lr := &st.lanes[p]; lr.gen == st.epoch {
					porig = lr.orig
				}
				// Non-uniform lanes originating at p have no stored
				// export; compute their per-receiver seed instead.
				seeded := porig &^ st.uniform & rest
				for m := rest &^ seeded; m != 0; {
					l := uint(bits.TrailingZeros64(m))
					m &^= 1 << l
					if k := st.ekeys[pb+int(l)]; k < bestKey[l] {
						bestKey[l] = k
						bestSrc[l] = p
						bestPrep[l] = st.eprep[pb+int(l)]
					}
				}
				for m := seeded; m != 0; {
					l := uint(bits.TrailingZeros64(m))
					m &^= 1 << l
					c, ok := st.seedCand(&st.anns[l], p, u)
					if !ok {
						continue
					}
					if key := expKey(c.len, g.ASNAt(p)); key < bestKey[l] {
						bestKey[l] = key
						bestSrc[l] = p
						bestPrep[l] = c.prep
					}
				}
			}
		}
		for m := rest; m != 0; {
			l := uint(bits.TrailingZeros64(m))
			m &^= 1 << l
			if k := bestKey[l]; k != noExport {
				ln := int32(k >> 32)
				prep := bestPrep[l]
				ekrow[l] = expKey(ln+1, uASN)
				eprow[l] = prep
				scl[l] = ClassProvider
				sln[l] = ln
				spr[l] = prep
				spa[l] = bestSrc[l]
			} else {
				ekrow[l] = noExport
				scl[l] = ClassNone
				sln[l] = -1
				spr[l] = 0
				spa[l] = -1
			}
		}
	}
	st.transpose(out)
}

// transposeBlock is the AS-axis tile of the staging-to-Result transpose:
// 64 staged rows per field (4–16KB each) stay cache-resident while every
// lane's column is peeled off with sequential writes.
const transposeBlock = 64

// transpose ships the staged row-major outcomes into each lane's Result
// columns. The per-AS sweep writes one short sequential burst per AS;
// doing the lane-major scatter here, tiled over the AS axis, keeps the
// store-stream and TLB footprint bounded regardless of lane width.
func (st *batchState) transpose(out []*Result) {
	stride := st.stride
	nn := len(st.lanes)
	for u0 := 0; u0 < nn; u0 += transposeBlock {
		u1 := min(u0+transposeBlock, nn)
		for l := 0; l < st.w; l++ {
			res := out[l]
			cls := res.Class[u0:u1]
			lns := res.Len[u0:u1]
			prp := res.Prep[u0:u1]
			par := res.Parent[u0:u1]
			row := u0*stride + l
			for i := range cls {
				idx := row + i*stride
				cls[i] = st.scls[idx]
				lns[i] = st.slen[idx]
				prp[i] = st.sprp[idx]
				par[i] = st.spar[idx]
			}
		}
	}
}

// PropagateBatch computes the stable no-attack routing outcome of K
// independent announcements in one lane-structured pass per <=64-lane
// chunk: one shared frontier walk over the CSR phases instead of K serial
// topology scans. Lane i's Result is bitwise-equal to
// PropagateScratch(g, anns[i], ...) — batching changes the schedule, never
// the outcome (pinned by the batched-vs-serial differential suite).
// Announcements may repeat and may carry per-neighbor λ or withheld
// sessions; sibling-bearing topologies are refused
// (ErrSiblingsNeedFullKernel) — the serial Fast engine routes those.
//
// The returned BatchResult borrows its Results from s (see the
// BatchScratch ownership contract). With s == nil the batch runs on a
// private scratch that the results keep alive. Warmed calls — same graph,
// lane width within capacity — are allocation-free at every lane width
// (TestPropagateBatchZeroAlloc).
//
// The K lanes never interact: each is its own prefix.
func PropagateBatch(g *topology.Graph, anns []Announcement, s *BatchScratch) (*BatchResult, error) {
	if len(anns) == 0 {
		return nil, errors.New("routing: PropagateBatch needs at least one announcement")
	}
	if g.HasSiblings() {
		return nil, ErrSiblingsNeedFullKernel
	}
	for i := range anns {
		if err := anns[i].Validate(g); err != nil {
			return nil, fmt.Errorf("routing: batch lane %d: %w", i, err)
		}
	}
	if s == nil {
		s = NewBatchScratch()
	}
	kc := len(anns)
	if kc > batchMaxLanes {
		kc = batchMaxLanes
	}
	s.grow(g.NumASes(), kc)
	s.ensureResults(len(anns))
	for start := 0; start < len(anns); start += batchMaxLanes {
		end := start + batchMaxLanes
		if end > len(anns) {
			end = len(anns)
		}
		var st batchState
		st.init(g, anns[start:end], s)
		out := s.ptrs[start:end]
		for l := range out {
			resultInto(out[l], g, st.origins[l])
		}
		st.seedAll()
		st.walk()
		st.finish(out)
	}
	s.out.Lanes = s.ptrs[:len(anns)]
	return &s.out, nil
}
