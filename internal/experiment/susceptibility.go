package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/topology"
)

// TierCell aggregates attack outcomes for one (victim tier, attacker
// tier) combination — the paper's §VI-B question "what type of ASes are
// likely to be hijacked", answered as a matrix.
type TierCell struct {
	VictimTier, AttackerTier int
	Instances                int
	// MeanPollution over the cell's instances; MaxPollution its worst case.
	MeanPollution, MaxPollution float64
}

// SusceptibilityConfig parameterizes the tier matrix experiment.
type SusceptibilityConfig struct {
	// PairsPerCell is the target number of instances per tier pair.
	PairsPerCell int
	// MaxTier groups every tier >= MaxTier into one "edge" bucket.
	MaxTier int
	Prepend int
	Violate bool
	Seed    int64
	Workers int
	// Counters optionally collects sweep telemetry; nil disables recording.
	Counters *obs.Counters
	// Batch > 1 warms the victims' baselines through the lane-batched
	// engine and runs the attack legs Batch lanes at a time on the
	// batched delta engine — jobs grouped by shared (victim, λ) baseline,
	// output identical to the serial legs. Sibling topologies keep the
	// attack legs serial. 0 or 1 keeps everything lazy/serial.
	Batch int
	// Shards partitions the jobs by victim into that many shards, each
	// owning a private BaselineCache released as soon as its shard
	// completes (DESIGN §5f); output byte-identical at every shard
	// count, 0 selects one shard per worker. MemBudget caps each shard's
	// cache bytes and narrows the lane width to fit; MemBudget with
	// Shards == 0 implies one budgeted shard.
	Shards    int
	MemBudget int64
}

// DefaultSusceptibilityConfig returns the calibrated setup. The matrix
// runs the rule-following attacker: the paper's §VI-B resilience claims
// ("victims closer to the core of the Internet would have more
// resilience") hold in the valley-free regime, while a violating attacker
// levels the field (the tier-1 peer mesh re-exports the bogus route to
// everyone regardless of the victim's position).
func DefaultSusceptibilityConfig() SusceptibilityConfig {
	return SusceptibilityConfig{
		PairsPerCell: 12,
		MaxTier:      3,
		Prepend:      3,
		Seed:         1,
	}
}

// SusceptibilityMatrixCtx samples attacker/victim pairs for every tier
// combination and reports pollution statistics per cell, sorted by
// (victim tier, attacker tier). Victims closer to the core prove more
// resilient; attackers closer to the core prove more effective — the
// paper's §VI-B findings. Unreachable-attacker draws are skipped and
// counted (each cell oversamples). Returns (nil, ctx.Err()) when
// cancelled.
func SusceptibilityMatrixCtx(ctx context.Context, g *topology.Graph, cfg SusceptibilityConfig) ([]TierCell, error) {
	if cfg.PairsPerCell <= 0 || cfg.MaxTier < 2 || cfg.Prepend < 1 {
		return nil, errors.New("experiment: bad susceptibility config")
	}
	// Bucket ASes by (capped) tier.
	byTier := make(map[int][]bgp.ASN)
	for _, asn := range g.ASNs() {
		t := g.Tier(asn)
		if t > cfg.MaxTier {
			t = cfg.MaxTier
		}
		byTier[t] = append(byTier[t], asn)
	}
	tiers := make([]int, 0, len(byTier))
	for t := range byTier {
		tiers = append(tiers, t)
	}
	sort.Ints(tiers)

	rng := rand.New(rand.NewSource(cfg.Seed))
	var (
		legs   []core.Scenario
		cellOf [][2]int // (victim tier, attacker tier) of each leg
	)
	for _, vt := range tiers {
		for _, at := range tiers {
			vPool, aPool := byTier[vt], byTier[at]
			if len(vPool) == 0 || len(aPool) == 0 {
				continue
			}
			// Oversample: some draws are unusable (unreachable attacker).
			for k := 0; k < cfg.PairsPerCell*4; k++ {
				v := vPool[rng.Intn(len(vPool))]
				m := aPool[rng.Intn(len(aPool))]
				if v != m {
					legs = append(legs, core.Scenario{
						Victim:            v,
						Attacker:          m,
						Prepend:           cfg.Prepend,
						ViolateValleyFree: cfg.Violate,
					})
					cellOf = append(cellOf, [2]int{vt, at})
				}
			}
		}
	}
	r, err := newLegRunner(g, legOptions{
		what: "susceptibility sweep", batch: cfg.Batch, shards: cfg.Shards,
		memBudget: cfg.MemBudget, workers: cfg.Workers, counters: cfg.Counters,
	})
	if err != nil {
		return nil, err
	}
	counts, done, err := r.run(ctx, legs, false)
	if err != nil {
		return nil, err
	}

	// Aggregate into the sorted tier matrix, capping each cell at
	// PairsPerCell in draw order.
	cells := make(map[[2]int]*TierCell)
	for i, key := range cellOf {
		if !done[i] {
			continue
		}
		c := cells[key]
		if c == nil {
			c = &TierCell{VictimTier: key[0], AttackerTier: key[1]}
			cells[key] = c
		}
		if c.Instances >= cfg.PairsPerCell {
			continue
		}
		f := counts[i].After()
		c.Instances++
		c.MeanPollution += f
		if f > c.MaxPollution {
			c.MaxPollution = f
		}
	}
	out := make([]TierCell, 0, len(cells))
	for _, c := range cells {
		if c.Instances > 0 {
			c.MeanPollution /= float64(c.Instances)
		}
		out = append(out, *c)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].VictimTier != out[b].VictimTier {
			return out[a].VictimTier < out[b].VictimTier
		}
		return out[a].AttackerTier < out[b].AttackerTier
	})
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: no usable susceptibility instances")
	}
	return out, nil
}
