package routing

import "unsafe"

// Memory-footprint accounting (DESIGN §5f). The sharded sweep layer
// budgets each shard's working set — baseline cache and propagation
// scratch — in bytes, and the obs byte gauges report the realized
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
