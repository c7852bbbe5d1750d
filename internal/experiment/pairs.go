// Package experiment contains the drivers that regenerate every table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment index):
// attacker/victim pair sweeps (Figs. 7-8), prepend-count sweeps
// (Figs. 9-12), detection accuracy and latency (Figs. 13-14), the ASPP
// usage survey (Figs. 5-6, via internal/measure), and the Facebook case
// study (Fig. 1 and Table I).
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

// PairKind selects how attacker/victim pairs are drawn.
type PairKind uint8

const (
	// PairsTier1: both the attacker and the victim are tier-1 ASes
	// (paper Fig. 7).
	PairsTier1 PairKind = iota + 1
	// PairsRandom: both are drawn uniformly from all ASes (paper Fig. 8;
	// most draws land in the stub edge, as in the paper).
	PairsRandom
)

// PairImpact is one hijack instance's outcome.
type PairImpact struct {
	Victim, Attacker       bgp.ASN
	VictimTier, AttackTier int
	// Before/After: fraction of ASes whose path to the victim traverses
	// the attacker without/with the attack.
	Before, After float64
}

// PairConfig parameterizes SamplePairsCtx.
type PairConfig struct {
	Kind    PairKind
	N       int // number of hijack instances
	Prepend int // victim's λ
	Violate bool
	Seed    int64
	Workers int
	// Counters optionally collects sweep telemetry (propagations per
	// engine, cache hits, skipped draws, memory gauges). One Counters per
	// sweep; nil disables recording.
	Counters *obs.Counters
	// Deprecated: ignored. Every leg runs on the scalar kernels, one shard
	// per worker, each holding one baseline (DESIGN §5f); the fields stay
	// only while bench/layers.go sets them (ROADMAP item 2c).
	Batch     int
	Shards    int
	MemBudget int64
}

// SamplePairsCtx simulates cfg.N interception instances with independently
// drawn pairs and returns them ranked by pollution (the paper's Figs. 7-8
// presentation). Each shard propagates a victim's baseline once for its
// run of legs, and the attack legs run on per-shard scratch state (see
// legRunner). On cancellation it returns (nil, ctx.Err()): no partial
// ranking is produced.
//
// Candidates come from one deterministic draw stream and each round
// simulates only as many as the quota still needs (legRunner.drain) — with
// no skipped draws the sweep runs N propagations, not the full 20N retry
// budget (the budget only bounds how far redraws may reach). Error contract
// (DESIGN §6): an unreachable attacker is a skippable draw, redrawn from
// the stream and counted; a baseline failure (ErrBaselineFailed) or any
// other propagation error aborts the sweep.
func SamplePairsCtx(ctx context.Context, g *topology.Graph, cfg PairConfig) ([]PairImpact, error) {
	if cfg.N <= 0 {
		return nil, errors.New("experiment: N must be positive")
	}
	if cfg.Prepend < 1 {
		return nil, errors.New("experiment: prepend must be >= 1")
	}
	var pool []bgp.ASN
	switch cfg.Kind {
	case PairsTier1:
		pool = g.Tier1s()
		if len(pool) < 2 {
			return nil, errors.New("experiment: fewer than two tier-1 ASes")
		}
	case PairsRandom:
		pool = g.ASNs()
	default:
		return nil, fmt.Errorf("experiment: unknown pair kind %d", cfg.Kind)
	}

	// Candidates come from one rng stream regardless of how rounds cut it,
	// so the k-th candidate is identical whether the sweep simulates one
	// round or the whole budget — determinism is in the stream.
	rng := rand.New(rand.NewSource(cfg.Seed))
	budget := cfg.N * 20
	var (
		drawn      int
		seen       = make(map[[2]bgp.ASN]bool, cfg.N)
		maxOrdered = len(pool) * (len(pool) - 1)
		exhausted  bool
	)
	nextChunk := func(size int) []core.Scenario {
		chunk := make([]core.Scenario, 0, size)
		for len(chunk) < size && drawn < budget && !exhausted {
			v := pool[rng.Intn(len(pool))]
			m := pool[rng.Intn(len(pool))]
			if v == m {
				continue
			}
			p := [2]bgp.ASN{v, m}
			if cfg.Kind == PairsTier1 && seen[p] {
				continue // tier-1 pool is small; avoid duplicate instances
			}
			seen[p] = true
			chunk = append(chunk, core.Scenario{
				Victim:            v,
				Attacker:          m,
				Prepend:           cfg.Prepend,
				ViolateValleyFree: cfg.Violate,
			})
			drawn++
			if cfg.Kind == PairsTier1 && len(seen) == maxOrdered {
				exhausted = true // all ordered tier-1 pairs drawn
			}
		}
		return chunk
	}

	// Shard states persist across rounds: a shard's first victim of a
	// round is a hit if it ended the last round on it.
	r := newLegRunner(g, legOptions{what: "pair sweep", workers: cfg.Workers, counters: cfg.Counters})
	out := make([]PairImpact, 0, cfg.N)
	var chunk []core.Scenario
	err := r.drain(ctx, func() []core.Scenario {
		chunk = nextChunk(cfg.N - len(out)) // empty: quota met, or retry budget or pair space exhausted
		return chunk
	}, nil, func(i int, c core.Counts) {
		sc := chunk[i]
		out = append(out, PairImpact{
			Victim:     sc.Victim,
			Attacker:   sc.Attacker,
			VictimTier: g.Tier(sc.Victim),
			AttackTier: g.Tier(sc.Attacker),
			Before:     c.Before(),
			After:      c.After(),
		})
	})
	if err != nil {
		return nil, err
	}
	if len(out) < cfg.N {
		return out, fmt.Errorf("experiment: only %d of %d instances usable", len(out), cfg.N)
	}
	// Rank by pollution, descending (the paper's presentation).
	sort.Slice(out, func(a, b int) bool {
		if out[a].After != out[b].After {
			return out[a].After > out[b].After
		}
		if out[a].Victim != out[b].Victim {
			return out[a].Victim < out[b].Victim
		}
		return out[a].Attacker < out[b].Attacker
	})
	return out, nil
}

// SweepPoint is one λ step of a prepend sweep.
type SweepPoint struct {
	Lambda        int
	Before, After float64
}

// SweepConfig parameterizes SweepPrependCfgCtx.
type SweepConfig struct {
	Victim, Attacker bgp.ASN
	MaxLambda        int
	Violate          bool
	Workers          int
	// Counters optionally collects sweep telemetry; nil disables recording.
	Counters *obs.Counters
}

// SweepPrependCfgCtx simulates one victim/attacker pair for
// λ = 1..MaxLambda (paper Figs. 9-12). The steps split into contiguous λ
// blocks, one shard per worker (DESIGN §5f); each shard propagates the
// victim once and shifts that baseline to its other λ, and every attack leg
// is recomputed against its step's baseline — incrementally under the delta engine, which only re-walks the
// attacker's cone. For a single fixed pair there is nothing to redraw, so
// the error contract is all-fatal: any step failing (even an unreachable
// attacker) aborts the sweep with the lowest-λ error. Returns
// (nil, ctx.Err()) when cancelled.
func SweepPrependCfgCtx(ctx context.Context, g *topology.Graph, cfg SweepConfig) ([]SweepPoint, error) {
	if cfg.MaxLambda < 1 {
		return nil, errors.New("experiment: maxLambda must be >= 1")
	}
	r := newLegRunner(g, legOptions{
		what:    fmt.Sprintf("sweep %v/%v", cfg.Victim, cfg.Attacker),
		workers: cfg.Workers, counters: cfg.Counters,
		allFatal: true,
	})
	legs := make([]core.Scenario, cfg.MaxLambda)
	for i := range legs {
		legs[i] = core.Scenario{
			Victim:            cfg.Victim,
			Attacker:          cfg.Attacker,
			Prepend:           i + 1,
			ViolateValleyFree: cfg.Violate,
		}
	}
	counts, _, err := r.run(ctx, legs, nil)
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, len(counts))
	for i, c := range counts {
		points[i] = SweepPoint{Lambda: i + 1, Before: c.Before(), After: c.After()}
	}
	return points, nil
}

// PickTier1ByDegree returns the rank-th highest-degree tier-1 AS (0 = the
// largest), for the paper's named-AS scenarios ("Sprint hijacks AT&T").
func PickTier1ByDegree(g *topology.Graph, rank int) (bgp.ASN, error) {
	// Tier1s returns shared read-only storage; copy before reordering.
	t1 := append([]bgp.ASN(nil), g.Tier1s()...)
	if len(t1) == 0 {
		return 0, errors.New("experiment: no tier-1 ASes")
	}
	sort.Slice(t1, func(a, b int) bool {
		da, db := g.Degree(t1[a]), g.Degree(t1[b])
		if da != db {
			return da > db
		}
		return t1[a] < t1[b]
	})
	if rank >= len(t1) {
		rank = len(t1) - 1
	}
	return t1[rank], nil
}

// PickContentStub returns the multihomed stub AS with the most peering
// links — the "small but well-connected enterprise ISP" (Facebook) of the
// paper's Figs. 10-11. Multihoming matters for the attacker role: with a
// single provider the bogus route loops back to its own upstream and dies.
func PickContentStub(g *topology.Graph) (bgp.ASN, error) {
	var best bgp.ASN
	bestKey := [2]int{-1, -1} // (multihomed, peers), lexicographic
	for _, asn := range g.ASNs() {
		if !g.IsStub(asn) || g.Tier(asn) == 1 {
			continue
		}
		multi := 0
		if len(g.Providers(asn)) >= 2 {
			multi = 1
		}
		key := [2]int{multi, len(g.Peers(asn))}
		if key[0] > bestKey[0] ||
			(key[0] == bestKey[0] && key[1] > bestKey[1]) ||
			(key == bestKey && asn < best) {
			best, bestKey = asn, key
		}
	}
	if best == 0 {
		return 0, errors.New("experiment: no stub ASes")
	}
	return best, nil
}

// MultihomedStubs returns PickStub's pool: the multi-provider stubs below
// tier 1 other than the content stub, in ASNs() order.
func MultihomedStubs(g *topology.Graph) ([]bgp.ASN, error) {
	content, err := PickContentStub(g)
	if err != nil {
		// No stub exists at all, so the filtered pool is empty too; fail
		// with the cause instead of masking it.
		return nil, fmt.Errorf("experiment: picking stub: %w", err)
	}
	var stubs []bgp.ASN
	for _, asn := range g.ASNs() {
		if g.IsStub(asn) && g.Tier(asn) > 1 && asn != content && len(g.Providers(asn)) >= 2 {
			stubs = append(stubs, asn)
		}
	}
	if len(stubs) == 0 {
		return nil, errors.New("experiment: no multihomed stubs")
	}
	return stubs, nil
}

// PickStub returns a deterministic pseudo-random multi-provider stub,
// skipping the content stub, for the small-vs-small scenario (Fig. 12).
func PickStub(g *topology.Graph, seed int64) (bgp.ASN, error) {
	stubs, err := MultihomedStubs(g)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	return stubs[rng.Intn(len(stubs))], nil
}
