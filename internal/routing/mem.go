package routing

import "unsafe"

// Memory-footprint accounting (DESIGN §5f). The sharded sweep layer
// budgets each shard's working set — baseline cache, propagation scratch,
// lane tables — in bytes, and the obs byte gauges report the realized
// high-watermarks. These methods compute the resident footprint of the
// routing-side structures from slice CAPACITIES (grown-but-unused tail
// bytes are still resident) plus the fixed struct size; only the map
// inside PathArena is estimated (Go exposes no exact bucket accounting),
// with the approximation documented at mapEntryOverheadBytes.

// sliceBytes is the backing-array footprint of a slice: capacity times
// element size.
func sliceBytes[T any](s []T) int64 {
	var zero T
	return int64(cap(s)) * int64(unsafe.Sizeof(zero))
}

// mapEntryOverheadBytes approximates the per-entry overhead of a Go map
// beyond the value's own backing storage: the 8-byte key, the slice
// header stored as the value and amortized bucket/tophash bookkeeping.
const mapEntryOverheadBytes = 48

// baselineBytesPerAS is the per-AS column footprint of a cached baseline
// Result: Class 1 + Len 4 + Prep 2 + Parent 4. Cached baselines carry no
// Via column (ViaSetInto materializes via-sets into Scratch storage on
// demand), so 11 bytes per AS is the whole row.
const baselineBytesPerAS = 11

// BaselineResultBytes predicts the footprint of one cached baseline for
// an n-AS graph — the unit the baseline cache budget is spent in. It is a
// floor: Clone's append-allocated columns may round up to the allocator's
// size classes, which the capacity-based MemoryBytes on the actual Result
// observes and this predictor ignores.
func BaselineResultBytes(n int) int64 {
	return int64(unsafe.Sizeof(Result{})) + int64(n)*baselineBytesPerAS
}

// backingBytes is r's column storage alone, excluding the struct header —
// owners that already count the header (an embedded slot, a []Result
// element) add this to avoid double-counting.
func (r *Result) backingBytes() int64 {
	return sliceBytes(r.Class) + sliceBytes(r.Len) + sliceBytes(r.Prep) +
		sliceBytes(r.Parent) + sliceBytes(r.Via)
}

// MemoryBytes is the resident footprint of a standalone Result: struct
// header plus column backing. This is what one cached baseline costs the
// baseline cache's byte budget.
func (r *Result) MemoryBytes() int64 {
	if r == nil {
		return 0
	}
	return int64(unsafe.Sizeof(*r)) + r.backingBytes()
}

// MemoryBytes is the resident footprint of the Scratch: every candidate,
// rejection, delta and via table at capacity, plus the three result
// slots. The struct size covers the embedded slot headers, so the slots
// contribute backing only.
func (s *Scratch) MemoryBytes() int64 {
	if s == nil {
		return 0
	}
	return int64(unsafe.Sizeof(*s)) +
		sliceBytes(s.recs) + sliceBytes(s.reject) + sliceBytes(s.rejectList) +
		sliceBytes(s.custSet) + sliceBytes(s.peerSet) + sliceBytes(s.exps) +
		sliceBytes(s.sibOff) + sliceBytes(s.sibProv) +
		sliceBytes(s.dflags) + sliceBytes(s.touched) + sliceBytes(s.dprov) +
		sliceBytes(s.via) + sliceBytes(s.viaBase) +
		sliceBytes(s.viaState) + sliceBytes(s.viaSeen) +
		sliceBytes(s.deltaVia) +
		s.base.backingBytes() + s.atk.backingBytes() + s.delta.backingBytes()
}

// MemoryBytes is the resident footprint of the BatchScratch: the
// lane-major candidate/export/staging tables, frontier bitsets, delta
// masks and per-lane result slots at capacity. out.Lanes is a reslice of
// ptrs and so is not counted again.
func (s *BatchScratch) MemoryBytes() int64 {
	if s == nil {
		return 0
	}
	b := int64(unsafe.Sizeof(*s)) +
		sliceBytes(s.lanes) + sliceBytes(s.cust) + sliceBytes(s.peer) +
		sliceBytes(s.ekeys) + sliceBytes(s.eprep) +
		sliceBytes(s.scls) + sliceBytes(s.slen) +
		sliceBytes(s.sprp) + sliceBytes(s.spar) +
		sliceBytes(s.custSet) + sliceBytes(s.peerSet) +
		sliceBytes(s.results) + sliceBytes(s.ptrs) +
		sliceBytes(s.dlanes) + sliceBytes(s.bdprov) + sliceBytes(s.provSet) +
		sliceBytes(s.brej) + sliceBytes(s.brejList) +
		sliceBytes(s.btouched) + sliceBytes(s.btouchedM) + sliceBytes(s.btouchedStarts) +
		sliceBytes(s.bprevT) + sliceBytes(s.bprevM) + sliceBytes(s.bprevStarts) +
		sliceBytes(s.laneVia) + sliceBytes(s.laneBase) + sliceBytes(s.laneGen)
	for i := range s.results {
		b += s.results[i].backingBytes()
	}
	for _, v := range s.laneVia {
		b += sliceBytes(v)
	}
	return b
}

// MemoryBytes is the resident footprint of the arena: span bodies, the
// intern table's segment store and its index (estimated per entry — see
// mapEntryOverheadBytes).
func (a *PathArena) MemoryBytes() int64 {
	if a == nil {
		return 0
	}
	b := int64(unsafe.Sizeof(*a)) +
		sliceBytes(a.buf) + sliceBytes(a.segBuf) +
		sliceBytes(a.segs) + sliceBytes(a.tmp)
	for _, ids := range a.segIdx {
		b += sliceBytes(ids) + mapEntryOverheadBytes
	}
	return b
}

// AdaptiveLaneWidthBudget generalizes AdaptiveLaneWidth to an explicit
// per-shard byte budget (the -mem-budget flag): it returns the widest
// lane count K (1..MaxLanes) whose marginal working set fits — each lane
// costs its rows in the shared lane tables (batchBytesPerLaneAS per AS)
// plus the cached baseline a warm group pins for it
// (BaselineResultBytes): lane width derives from the memory a shard may
// use rather than only the fixed -batch K (the lane-batched attack path is
// ROADMAP item 2a's to delete). Deterministic in (n, budget); a non-positive
// budget falls back to the cache-residency policy of AdaptiveLaneWidth.
func AdaptiveLaneWidthBudget(n int, budget int64) int {
	if n <= 0 || budget <= 0 {
		return AdaptiveLaneWidth(n)
	}
	perLane := int64(n)*batchBytesPerLaneAS + BaselineResultBytes(n)
	k := budget / perLane
	if k > MaxLanes {
		return MaxLanes
	}
	if k < 1 {
		return 1
	}
	return int(k)
}
