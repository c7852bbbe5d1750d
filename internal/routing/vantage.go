package routing

import (
	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// Vantage is a monitor list resolved once on one graph, for callers that
// read a no-attacker table only at those monitors: it states which rows will
// be read, so phase 3 emits those instead of the whole graph's
// (fastState.downRows). Immutable once built: share one across workers.
type Vantage struct {
	g *topology.Graph
	// mons is each monitor's dense index in caller order, duplicates kept;
	// -1 for an ASN outside the graph, which reads as "no route".
	mons []int32
	// rows is the bitset of the monitors' provider up-closure.
	rows []uint64
}

// NewVantage resolves monitors on g.
func NewVantage(g *topology.Graph, monitors []bgp.ASN) *Vantage {
	n := int32(g.NumASes())
	v := &Vantage{g: g, mons: make([]int32, len(monitors)), rows: make([]uint64, (n+63)>>6)}
	for i, m := range monitors {
		v.mons[i] = -1
		if idx, ok := g.Index(m); ok {
			v.mons[i] = idx
			v.rows[idx>>6] |= 1 << uint(idx&63)
		}
	}
	// Providers carry higher indices than their customers (the Graph's
	// up-topological numbering), so one ascending pass closes the set.
	for u := int32(0); u < n; u++ {
		if v.rows[u>>6]&(1<<uint(u&63)) != 0 {
			for _, p := range g.ProvidersIdx(u) {
				v.rows[p>>6] |= 1 << uint(p&63)
			}
		}
	}
	return v
}

// PathsInto propagates ann with no attacker on s and appends the path each
// monitor receives to spans, in NewVantage's order: Result.PathsInto of
// PropagateScratch(g, ann, s) at those monitors, without emitting the rows
// no monitor's path runs through (a sibling-bearing graph emits them all).
// With a nil arena no body is stored and the spans carry Prep and Origin
// alone (Seg -1). The routes stay in s's baseline slot, unreturned: only the
// monitors' rows and their parent chains are there.
func (v *Vantage) PathsInto(ann Announcement, s *Scratch, a *PathArena, spans []PathSpan) ([]PathSpan, error) {
	if cap(s.base.Class) < v.g.NumASes() {
		// Fresh rows, mostly left unwritten: a reader straying onto one must
		// fail on an impossible parent, not read a plausible "no route".
		resultInto(&s.base, v.g, 0).poison()
	}
	res, err := propagateInto(v.g, ann, s, &s.base, v.rows)
	if err != nil {
		return nil, err
	}
	if a != nil {
		return res.PathsInto(a, v.mons, spans), nil
	}
	for _, i := range v.mons {
		sp := PathSpan{Seg: -1}
		if i >= 0 && i != res.origin && res.Class[i] != ClassNone {
			sp.Prep, sp.Origin = int32(res.Prep[i]), ann.Origin
		}
		spans = append(spans, sp)
	}
	return spans, nil
}

// poison overwrites every row, spare capacity included, with values no
// propagation writes.
func (r *Result) poison() {
	c := cap(r.Class)
	class, length, prep, parent := r.Class[:c], r.Len[:c], r.Prep[:c], r.Parent[:c]
	for i := range class {
		class[i], length[i], prep[i], parent[i] = 0xEE, -0x5EED, -0x5EE, -2
	}
}
