package relinfer

import (
	"context"
	"errors"
	"fmt"

	"aspp/internal/bgp"
	"aspp/internal/obs"
	"aspp/internal/parallel"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// CollectPaths harvests the AS paths that a set of route monitors would
// export for routes toward the given origins — the input a real inference
// pipeline extracts from RouteViews/RIPE table dumps. Each path includes
// the monitor's own ASN at the front, matching collector exports.
func CollectPaths(g *topology.Graph, origins, monitors []bgp.ASN, workers int) ([]bgp.Path, error) {
	return collectPaths(g, origins, monitors, workers, nil)
}

// collectPaths is CollectPaths recording each origin's propagation into c.
func collectPaths(g *topology.Graph, origins, monitors []bgp.ASN, workers int, c *obs.Counters) ([]bgp.Path, error) {
	if len(origins) == 0 || len(monitors) == 0 {
		return nil, errors.New("relinfer: need origins and monitors")
	}
	// Shared read-only; a monitor outside the graph yields the empty span.
	vantage := routing.NewVantage(g, monitors)
	// Per-worker state: a propagation scratch plus a path arena reused
	// across the worker's origins. Only the exported paths themselves are
	// materialized (one allocation each, in collector-export shape).
	type collectState struct {
		s     *routing.Scratch
		arena *routing.PathArena
		spans []routing.PathSpan
	}
	newState := func() *collectState {
		return &collectState{s: routing.NewScratch(), arena: routing.NewPathArena()}
	}
	perOrigin, perr := parallel.MapScratchErr(context.Background(), len(origins), workers, newState, func(st *collectState, i int) ([]bgp.Path, error) {
		st.arena.Reset()
		spans, err := vantage.PathsInto(routing.Announcement{Origin: origins[i], Prepend: 1}, st.s, st.arena, st.spans[:0])
		if err != nil {
			return nil, fmt.Errorf("relinfer: propagate %v: %w", origins[i], err)
		}
		st.spans = spans
		c.Add(obs.BasePropagations, 1)
		c.Add(obs.RowsDown, st.s.RowsDown())
		c.Max(obs.ScratchBytes, st.s.MemoryBytes())
		var out []bgp.Path
		for k, m := range monitors {
			if sp := st.spans[k]; sp.Prep > 0 {
				out = append(out, st.arena.PathWith(m, sp))
			}
		}
		return out, nil
	})
	if perr != nil {
		return nil, perr
	}
	var all []bgp.Path
	for _, ps := range perOrigin {
		all = append(all, ps...)
	}
	if len(all) == 0 {
		return nil, errors.New("relinfer: no paths observed")
	}
	return all, nil
}

// SampleOrigins picks up to n origin ASes spread deterministically over
// the whole graph in index order. The i-th pick is asns[i*len/n], so the
// sample always spans the full list: an integer step of len/n would
// degenerate to the first-n prefix whenever n > len/2 (step 1), biasing
// the inference input toward whatever order ASNs() returns.
func SampleOrigins(g *topology.Graph, n int) []bgp.ASN {
	asns := g.ASNs()
	if n <= 0 || n >= len(asns) {
		return asns
	}
	out := make([]bgp.ASN, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, asns[i*len(asns)/n])
	}
	return out
}
