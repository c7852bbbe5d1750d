package measure

import (
	"errors"
	"fmt"

	"aspp/internal/bgp"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// PathStats summarizes AS-path lengths under the simulator's routing
// policy — the structural property the paper's results most depend on (it
// pads "half of the average AS path length" in its Tier-1 experiments).
type PathStats struct {
	// Samples is the number of (origin, AS) pairs measured.
	Samples int
	// MeanHops is the average unique-AS path length over reachable pairs.
	MeanHops float64
	// MaxHops is the longest observed path.
	MaxHops int
	// ReachableFrac is the fraction of (origin, AS) pairs with a route.
	ReachableFrac float64
	// Dist[h] is the fraction of reachable pairs with exactly h hops.
	Dist map[int]float64
}

// MeasurePaths propagates each origin's unpadded announcement on the
// routing kernel and reads every other AS's hop count off its row
// (Len − Prep + 1: the path's links, prepends not counted). The routes are
// the ones every experiment simulates — Gao–Rexford preference, sibling
// links included — so the distribution describes the graph the figures
// ran on.
func MeasurePaths(g *topology.Graph, origins []bgp.ASN) (PathStats, error) {
	s := routing.NewScratch()
	var ps PathStats
	counts := make(map[int]int)
	reachable, hopSum := 0, 0
	for _, o := range origins {
		res, err := routing.PropagateScratch(g, routing.Announcement{Origin: o, Prepend: 1}, s)
		if err != nil {
			return PathStats{}, fmt.Errorf("measure: paths from %v: %w", o, err)
		}
		for i, cls := range res.Class {
			if int32(i) == res.OriginIdx() {
				continue
			}
			ps.Samples++
			if cls == routing.ClassNone {
				continue
			}
			h := int(res.Len[i]-int32(res.Prep[i])) + 1
			reachable++
			hopSum += h
			counts[h]++
			ps.MaxHops = max(ps.MaxHops, h)
		}
	}
	if ps.Samples == 0 {
		return PathStats{}, errors.New("measure: no paths to measure")
	}
	ps.ReachableFrac = float64(reachable) / float64(ps.Samples)
	if reachable > 0 {
		ps.MeanHops = float64(hopSum) / float64(reachable)
	}
	ps.Dist = make(map[int]float64, len(counts))
	for h, c := range counts {
		ps.Dist[h] = float64(c) / float64(reachable)
	}
	return ps, nil
}
