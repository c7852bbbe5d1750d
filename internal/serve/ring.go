// Package serve runs the paper's streaming detector as infrastructure
// (DESIGN §5g): a prefix-sharded ingest pipeline that carries bgp.Update
// streams from sockets (or an in-process load generator) through bounded
// per-shard rings into detect.Detector instances, with explicit
// backpressure, an alarm feed and HTTP metrics exposition.
package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"aspp/internal/bgp"
)

// slot is one ring entry. The Update's Path is slot-owned storage: a push
// copies the producer's path bytes into the slot's spare capacity, so a
// warmed ring moves updates without allocating and the producer's decode
// buffer can be reused immediately.
type slot struct {
	u   bgp.Update
	enq int64 // nanoseconds since pipeline start, stamped at push
}

// ring is a bounded single-producer/single-consumer queue of updates.
// head is the consumer cursor (next slot to read), tail the producer
// cursor (next slot to write); both grow without wrapping and are masked
// into the slot array, so emptiness is head == tail and fullness is
// tail-head == len(slots). The cursors sit on separate cache lines: the
// producer writes tail and reads head, the consumer the reverse, and
// padding keeps those from ping-ponging one line.
//
// The SPSC contract: exactly one goroutine calls drain/advance (the
// shard's worker). Producers (ingest connections and RunLoad) may be
// several, so push serializes them with pmu and the ring sees one producer
// at a time.
type ring struct {
	slots []slot
	mask  uint64

	_    [64]byte
	head atomic.Uint64 // consumer: next slot to read
	_    [56]byte
	tail atomic.Uint64 // producer: next slot to write
	_    [56]byte

	peak atomic.Int64 // occupancy high-watermark

	pmu  sync.Mutex    // serializes producers
	wake chan struct{} // holds a token after any push; an idle consumer blocks on it
}

// newRing builds a ring with at least the requested depth, rounded up to
// a power of two for cursor masking.
func newRing(depth int) *ring {
	size := 2
	for size < depth {
		size *= 2
	}
	return &ring{slots: make([]slot, size), mask: uint64(size - 1), wake: make(chan struct{}, 1)}
}

// memoryBytes is the slot array's static footprint (update header plus
// enqueue stamp per slot). Slot-owned path bodies grow with traffic and
// are not counted: they are producer/consumer-shared storage a foreign
// reader cannot size safely.
func (r *ring) memoryBytes() int64 {
	return int64(len(r.slots)) * int64(unsafe.Sizeof(slot{}))
}

// depth returns the current occupancy (approximate under concurrency).
func (r *ring) depth() int64 { return int64(r.tail.Load() - r.head.Load()) }

// push appends one update under pmu. block selects the backpressure
// policy: true spins (yielding) until a slot frees or stop reports the
// pipeline is closing; false refuses the update and returns false, and the
// caller counts the drop. The update's path bytes are copied into the slot.
func (r *ring) push(u *bgp.Update, now int64, block bool, stop func() bool) bool {
	r.pmu.Lock()
	defer r.pmu.Unlock()
	tail := r.tail.Load()
	for tail-r.head.Load() >= uint64(len(r.slots)) {
		if !block || (stop != nil && stop()) {
			return false
		}
		runtime.Gosched()
	}
	s := &r.slots[tail&r.mask]
	s.u.Time, s.u.Monitor, s.u.Type, s.u.Prefix = u.Time, u.Monitor, u.Type, u.Prefix
	s.u.Path = append(s.u.Path[:0], u.Path...)
	s.enq = now
	r.tail.Store(tail + 1)
	r.signal()
	if occ := int64(tail + 1 - r.head.Load()); occ > r.peak.Load() {
		r.peak.Store(occ) // under pmu: no CAS needed
	}
	return true
}

// signal leaves the consumer a wake token unless one is already waiting
// (the usual case under load: one lock-free read of a full channel).
func (r *ring) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// drain copies up to len(batch) pending updates (and their enqueue
// stamps) out of the ring WITHOUT advancing the consumer cursor, so the
// copied Update headers may alias slot path storage safely: the producer
// cannot reuse those slots until advance. Returns the count.
func (r *ring) drain(batch []bgp.Update, enq []int64) int {
	head := r.head.Load()
	n := int(r.tail.Load() - head)
	if n == 0 {
		return 0
	}
	if n > len(batch) {
		n = len(batch)
	}
	for i := 0; i < n; i++ {
		s := &r.slots[(head+uint64(i))&r.mask]
		batch[i] = s.u
		enq[i] = s.enq
	}
	return n
}

// advance releases n drained slots back to the producer. Call only after
// the drained batch (whose paths alias slot storage) is fully consumed.
func (r *ring) advance(n int) {
	r.head.Store(r.head.Load() + uint64(n))
}
