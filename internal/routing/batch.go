package routing

import (
	"fmt"

	"aspp/internal/topology"
)

// The lane API is what bench/layers.go still times, and nothing in
// internal/, cmd/ or aspp.go calls it: the lane-batched engines are gone,
// and a lane is one scalar call on the BatchScratch's own Scratch. The
// [benchmark] issue retires it with the bench rows that pin it (ROADMAP 2a).

// maxLanes is AdaptiveLaneWidth's upper clamp.
const maxLanes = 64

// AdaptiveLaneWidth is the lane width the lane engines sized their tables
// to: 16 MiB of 64-byte (AS, lane) rows, clamped to 1..64 (n=4000 → 64,
// n=80000 → 3). Bench sizes its loops with it, so it stays as it was.
func AdaptiveLaneWidth(n int) int {
	if n <= 0 {
		return maxLanes
	}
	return max(1, min(maxLanes, (16<<20)/(n*64)))
}

// BatchScratch lends its Scratch to every lane and owns one result slot per
// lane. One goroutine at a time; the zero value is ready to use.
type BatchScratch struct {
	s     Scratch
	slots []Result
	ptrs  []*Result
	out   BatchResult
}

// NewBatchScratch returns an empty BatchScratch.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// BatchResult is one call's outcome: Lanes[i] is lane i's Result, borrowed
// from the BatchScratch until its next call (Clone one to keep it).
type BatchResult struct {
	Lanes []*Result
}

// AttackLane is one lane of PropagateAttackDeltaBatch: the arguments of one
// PropagateAttackDelta call.
type AttackLane struct {
	Ann      Announcement
	Atk      Attacker
	Baseline *Result
}

// lanes returns k result slots, each with its own stable pointer.
func (bs *BatchScratch) lanes(k int) []*Result {
	if len(bs.slots) < k {
		bs.slots = make([]Result, growCap(k, len(bs.slots)))
		bs.ptrs = make([]*Result, len(bs.slots))
		for i := range bs.slots {
			bs.ptrs[i] = &bs.slots[i]
		}
	}
	bs.out.Lanes = bs.ptrs[:k]
	return bs.out.Lanes
}

// PropagateBatch propagates each announcement in turn, straight into its
// lane's slot: lane i is row for row PropagateScratch(g, anns[i], ...). With
// bs == nil the lanes run on a private BatchScratch.
func PropagateBatch(g *topology.Graph, anns []Announcement, bs *BatchScratch) (*BatchResult, error) {
	if bs == nil {
		bs = NewBatchScratch()
	}
	for i, res := range bs.lanes(len(anns)) {
		if _, err := propagateInto(g, anns[i], &bs.s, res, nil); err != nil {
			return nil, fmt.Errorf("routing: batch lane %d: %w", i, err)
		}
	}
	return &bs.out, nil
}

// PropagateAttackDeltaBatch runs PropagateAttackDelta for each lane in turn
// and copies its result into the lane's slot, so lane i is row for row that
// call's outcome and fails as it does, lane-indexed. A baseline must not be
// one of bs's own slots: the lanes before it would overwrite it.
func PropagateAttackDeltaBatch(g *topology.Graph, lanes []AttackLane, bs *BatchScratch) (*BatchResult, error) {
	if bs == nil {
		bs = NewBatchScratch()
	}
	for i := range lanes {
		for j := range bs.slots {
			if lanes[i].Baseline == &bs.slots[j] {
				return nil, fmt.Errorf("routing: delta batch lane %d: baseline borrowed from the same BatchScratch (Clone it first)", i)
			}
		}
	}
	for i, res := range bs.lanes(len(lanes)) {
		l := &lanes[i]
		delta, err := PropagateAttackDelta(g, l.Ann, l.Atk, l.Baseline, &bs.s)
		if err != nil {
			return nil, fmt.Errorf("routing: delta batch lane %d: %w", i, err)
		}
		delta.copyInto(res)
	}
	return &bs.out, nil
}
