package experiment

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/topology"
)

// eagerMatrix is the oracle for the quota rule — the tier matrix as it ran
// before it became quota-driven: simulate every cell's whole oversample ×
// PairsPerCell draw stream, then cap each cell at PairsPerCell usable draws
// in draw order.
func eagerMatrix(t *testing.T, g *topology.Graph, cfg SusceptibilityConfig) []TierCell {
	t.Helper()
	byTier := make(map[int][]bgp.ASN)
	for _, asn := range g.ASNs() {
		tier := min(g.Tier(asn), cfg.MaxTier)
		byTier[tier] = append(byTier[tier], asn)
	}
	var tiers []int
	for tier := range byTier {
		tiers = append(tiers, tier)
	}
	sort.Ints(tiers)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var (
		legs   []core.Scenario
		cellOf [][2]int
	)
	for _, vt := range tiers {
		for _, at := range tiers {
			vPool, aPool := byTier[vt], byTier[at]
			for k := 0; k < cfg.PairsPerCell*oversample; k++ {
				v := vPool[rng.Intn(len(vPool))]
				m := aPool[rng.Intn(len(aPool))]
				if v != m {
					legs = append(legs, core.Scenario{Victim: v, Attacker: m, Prepend: cfg.Prepend})
					cellOf = append(cellOf, [2]int{vt, at})
				}
			}
		}
	}
	r := newLegRunner(g, legOptions{what: "eager matrix"})
	counts, done, err := r.run(context.Background(), legs, nil)
	if err != nil {
		t.Fatal(err)
	}
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
		c.MaxPollution = max(c.MaxPollution, f)
	}
	out := make([]TierCell, 0, len(cells))
	for _, c := range cells {
		c.MeanPollution /= float64(c.Instances)
		out = append(out, *c)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].VictimTier != out[b].VictimTier {
			return out[a].VictimTier < out[b].VictimTier
		}
		return out[a].AttackerTier < out[b].AttackerTier
	})
	return out
}

// TestSusceptibilityQuotaMatchesEager: simulating only what the quota still
// needs reports, cell for cell and bit for bit, what simulating the whole
// draw stream and capping reports.
func TestSusceptibilityQuotaMatchesEager(t *testing.T) {
	g := expGraph(t, 400, 35)
	for seed := int64(1); seed <= 6; seed++ {
		cfg := DefaultSusceptibilityConfig()
		cfg.Seed = seed
		got, err := SusceptibilityMatrixCtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := eagerMatrix(t, g, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: quota-driven matrix differs from the eager oracle\n got: %+v\nwant: %+v", seed, got, want)
		}
	}
}

// TestSusceptibilityTopUpRounds runs the matrix where draws are unusable:
// on unreachableAttackerGraph AS 900 is provider-free, so it sits in the
// tier-1 bucket, where it is unreachable as an attacker and unheard as a
// victim. The first round cannot fill those cells, the top-up rounds must
// pick the same later draws the eager oracle keeps, and the cell whose
// stream runs dry ends short in both.
func TestSusceptibilityTopUpRounds(t *testing.T) {
	g := unreachableAttackerGraph(t)
	short := false
	for seed := int64(1); seed <= 6; seed++ {
		c := new(obs.Counters)
		cfg := SusceptibilityConfig{PairsPerCell: 12, MaxTier: 3, Prepend: 2, Seed: seed, Counters: c}
		got, err := SusceptibilityMatrixCtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := eagerMatrix(t, g, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: quota-driven matrix differs from the eager oracle\n got: %+v\nwant: %+v", seed, got, want)
		}
		s := c.Snapshot()
		instances := int64(0)
		for _, cell := range got {
			instances += int64(cell.Instances)
			short = short || cell.Instances < cfg.PairsPerCell
		}
		if s.SkippedUnreachable == 0 {
			t.Errorf("seed %d: no draw skipped; the graph is built so draws on AS 900 skip", seed)
		}
		if s.AttackPropagations() != instances {
			t.Errorf("seed %d: %d attack legs for %d reported instances; a top-up round may simulate only what it reports", seed, s.AttackPropagations(), instances)
		}
	}
	if !short {
		t.Error("no cell ended short on any seed; the tier-1 cell's stream should run dry")
	}
}

// TestSusceptibilityWorkIsWhatItPrints: on a connected graph no draw is
// skipped, so the matrix simulates exactly cells × PairsPerCell attack
// legs, and at most that many baselines.
func TestSusceptibilityWorkIsWhatItPrints(t *testing.T) {
	g := expGraph(t, 400, 35)
	c := new(obs.Counters)
	cfg := DefaultSusceptibilityConfig()
	cfg.Counters = c
	cells, err := SusceptibilityMatrixCtx(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, want := c.Snapshot(), int64(len(cells)*cfg.PairsPerCell)
	if s.SkippedUnreachable != 0 {
		t.Fatalf("skip_unreachable=%d on a generated graph", s.SkippedUnreachable)
	}
	if s.DeltaPropagations != want || s.AttackPropagations() != want {
		t.Errorf("prop_delta=%d of %d attack legs, want %d cells × %d = %d", s.DeltaPropagations, s.AttackPropagations(), len(cells), cfg.PairsPerCell, want)
	}
	if s.BasePropagations > s.DeltaPropagations {
		t.Errorf("prop_base=%d > prop_delta=%d: a baseline no leg read", s.BasePropagations, s.DeltaPropagations)
	}
}
