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
	// Deprecated: ignored. Every leg runs on the scalar kernels, one shard
	// per worker, each holding one baseline (DESIGN §5f); the fields stay
	// only while bench/layers.go sets them (ROADMAP item 2c).
	Batch     int
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

// oversample is how many candidates each matrix cell may draw per instance
// it reports: some draws are unusable (victim == attacker, unreachable
// attacker).
const oversample = 4

// SusceptibilityMatrixCtx samples attacker/victim pairs for every tier
// combination and reports pollution statistics per cell, sorted by
// (victim tier, attacker tier). Victims closer to the core prove more
// resilient; attackers closer to the core prove more effective — the
// paper's §VI-B findings.
//
// Each cell aggregates its first PairsPerCell usable draws in draw order.
// The whole candidate stream — oversample × PairsPerCell draws per cell —
// comes from the one rng up front, so the k-th candidate never moves; the
// sweep then simulates only what the quota still needs (legRunner.drain):
// every round each cell submits its next PairsPerCell − Instances
// candidates, until all cells are full or out of draws. Unreachable-attacker
// draws are skipped and counted, and a cell whose draws run out ends short.
// Returns (nil, ctx.Err()) when cancelled.
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

	// Cells are generated, and therefore reported, in (victim tier,
	// attacker tier) order.
	type cell struct {
		TierCell
		cands []core.Scenario // the cell's draw stream, minus victim == attacker
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var cells []*cell
	for _, vt := range tiers {
		for _, at := range tiers {
			vPool, aPool := byTier[vt], byTier[at]
			c := &cell{TierCell: TierCell{VictimTier: vt, AttackerTier: at}}
			for k := 0; k < cfg.PairsPerCell*oversample; k++ {
				v := vPool[rng.Intn(len(vPool))]
				m := aPool[rng.Intn(len(aPool))]
				if v != m {
					c.cands = append(c.cands, core.Scenario{
						Victim:            v,
						Attacker:          m,
						Prepend:           cfg.Prepend,
						ViolateValleyFree: cfg.Violate,
					})
				}
			}
			cells = append(cells, c)
		}
	}
	r := newLegRunner(g, legOptions{what: "susceptibility sweep", workers: cfg.Workers, counters: cfg.Counters})
	var cellOf []*cell // the cell of each leg of the current round
	err := r.drain(ctx, func() []core.Scenario {
		var legs []core.Scenario
		cellOf = cellOf[:0]
		for _, c := range cells {
			k := min(cfg.PairsPerCell-c.Instances, len(c.cands))
			legs = append(legs, c.cands[:k]...)
			c.cands = c.cands[k:]
			for ; k > 0; k-- {
				cellOf = append(cellOf, c)
			}
		}
		return legs
	}, nil, func(i int, counts core.Counts) {
		c, f := cellOf[i], counts.After()
		c.Instances++
		c.MeanPollution += f
		c.MaxPollution = max(c.MaxPollution, f)
	})
	if err != nil {
		return nil, err
	}
	out := make([]TierCell, 0, len(cells))
	for _, c := range cells {
		if c.Instances > 0 {
			c.MeanPollution /= float64(c.Instances)
			out = append(out, c.TierCell)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: no usable susceptibility instances")
	}
	return out, nil
}
