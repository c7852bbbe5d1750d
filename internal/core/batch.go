package core

import (
	"errors"

	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// DeltaBatchRunner bundles the per-worker scratch state for batched
// attack legs: a BatchScratch for the K-lane delta walks, a Scratch for
// the ViaSetInto pollution traversal, and a reusable lane slice. One
// runner per goroutine (it inherits both scratches' ownership
// contracts); the sweep drivers hand it to parallel.ForEachScratchErr
// as the per-worker factory.
type DeltaBatchRunner struct {
	BS *routing.BatchScratch
	S  *routing.Scratch

	lanes []routing.AttackLane
}

// NewDeltaBatchRunner returns a runner with fresh scratches, ready for
// any graph and lane width.
func NewDeltaBatchRunner() *DeltaBatchRunner {
	return &DeltaBatchRunner{BS: routing.NewBatchScratch(), S: routing.NewScratch()}
}

// Simulate runs len(scs) interception attacks as lanes of one batched
// delta propagation and writes each scenario's pollution counts into
// out[i]. bases[i] is scenario i's memoized no-attack baseline (as
// produced by the baseline cache), used read-only; scenarios sharing a
// (origin, λ) announcement should share the baseline pointer so their
// lanes share copy-on-write reads. The attacker must be reachable in
// its baseline — drivers pre-filter draws with Baseline.Reachable and
// count the skip, exactly as on the serial path — so an unreachable
// attacker here surfaces as ErrAttackerSeesNoRoute (skippable, but a
// driver bug rather than a redraw). Counter attribution is exclusive:
// the lanes count as prop_delta_batch, never prop_delta or prop_full.
func (r *DeltaBatchRunner) Simulate(g *topology.Graph, scs []Scenario, bases []*routing.Result, out []Counts, c *obs.Counters) error {
	if len(scs) == 0 {
		return nil
	}
	if len(bases) != len(scs) || len(out) != len(scs) {
		return errors.New("core: DeltaBatchRunner.Simulate: scs, bases and out must have equal length")
	}
	if cap(r.lanes) < len(scs) {
		r.lanes = make([]routing.AttackLane, len(scs))
	}
	lanes := r.lanes[:len(scs)]
	for i, sc := range scs {
		if sc.Victim == sc.Attacker {
			return errors.New("core: victim and attacker must differ")
		}
		lanes[i] = routing.AttackLane{Ann: sc.Announcement(), Atk: sc.AttackerConfig(), Baseline: bases[i]}
	}
	br, err := routing.PropagateAttackDeltaBatch(g, lanes, r.BS)
	if errors.Is(err, routing.ErrUnreachableAttacker) {
		return ErrAttackerSeesNoRoute
	}
	if err != nil {
		return err
	}
	c.AddDeltaBatchPropagations(int64(len(scs)))
	c.AddDeltaBatchCalls(1)
	for i, sc := range scs {
		// The shared via buffer is consumed by countPollution before the
		// next lane overwrites it; the attacked Results live in distinct
		// BatchScratch slots and stay valid for the whole loop.
		viaBase := bases[i].ViaSetInto(sc.Attacker, r.S, nil)
		out[i] = countPollution(g, sc, bases[i], br.Lanes[i], viaBase, nil)
	}
	return nil
}
