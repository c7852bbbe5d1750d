package routing

import "unsafe"

// Memory-footprint accounting (DESIGN §5f). The sharded sweep layer
// reports each shard's working set — its propagation scratch and, inside
// it, the one baseline it holds — in bytes, as the obs byte gauges'
// high-watermarks. These methods compute the resident footprint of the
// routing-side structures from slice CAPACITIES (grown-but-unused tail
// bytes are still resident) plus the fixed struct size.

// sliceBytes is the backing-array footprint of a slice: capacity times
// element size.
func sliceBytes[T any](s []T) int64 {
	var zero T
	return int64(cap(s)) * int64(unsafe.Sizeof(zero))
}

// backingBytes is r's column storage alone, excluding the struct header —
// owners that already count the header (an embedded slot, a []Result
// element) add this to avoid double-counting.
func (r *Result) backingBytes() int64 {
	return sliceBytes(r.Class) + sliceBytes(r.Len) + sliceBytes(r.Prep) +
		sliceBytes(r.Parent) + sliceBytes(r.Via)
}

// MemoryBytes is the resident footprint of a Result: struct header plus
// column backing. For a sweep shard's baseline, its Scratch's baseline
// slot, this is what the cache_bytes gauge reports (a part of the Scratch's
// own MemoryBytes, not an addition to it).
func (r *Result) MemoryBytes() int64 {
	if r == nil {
		return 0
	}
	return int64(unsafe.Sizeof(*r)) + r.backingBytes()
}

// MemoryBytes is the resident footprint of the Scratch: every candidate,
// rejection, delta (touch flags, touched list, worklists) and via table at
// capacity, plus the three result slots. The struct size covers the
// embedded slot headers, so the slots contribute backing only.
func (s *Scratch) MemoryBytes() int64 {
	if s == nil {
		return 0
	}
	return int64(unsafe.Sizeof(*s)) +
		sliceBytes(s.recs) + sliceBytes(s.reject) + sliceBytes(s.rejectList) +
		sliceBytes(s.custSet) + sliceBytes(s.peerSet) + sliceBytes(s.exps) +
		sliceBytes(s.sibOff) + sliceBytes(s.sibProv) +
		sliceBytes(s.dflags) + sliceBytes(s.touched) +
		sliceBytes(s.dirty[0]) + sliceBytes(s.dirty[1]) + sliceBytes(s.dirty[2]) +
		sliceBytes(s.via) + sliceBytes(s.viaBase) +
		sliceBytes(s.viaState) + sliceBytes(s.viaSeen) +
		sliceBytes(s.deltaVia) +
		s.base.backingBytes() + s.atk.backingBytes() + s.delta.backingBytes()
}

// MemoryBytes is the resident footprint of the arena: span bodies, the
// intern table's segment store and its index, and the scratch slices.
func (a *PathArena) MemoryBytes() int64 {
	if a == nil {
		return 0
	}
	return int64(unsafe.Sizeof(*a)) + sliceBytes(a.buf) + sliceBytes(a.segBuf) + sliceBytes(a.segs) +
		a.segIdx.MemoryBytes() + sliceBytes(a.tmp) + sliceBytes(a.renum)
}
