package routing

import (
	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// Result is the stable routing outcome for one announcement: per AS, the
// class, length, origin-prepend count and next hop of its best route.
// Slices are indexed by the graph's dense AS index.
type Result struct {
	g      *topology.Graph
	origin int32

	// Class[i] is the policy class of i's best route (ClassNone if i has
	// no route or i is the origin).
	Class []Class
	// Len[i] is the received AS-path length, counting prepends. The
	// origin's own entry is 0.
	Len []int32
	// Prep[i] is the number of origin copies visible in i's path — zero
	// for a route captured by an origin hijack, whose path ends at the
	// attacker instead.
	Prep []int16
	// Parent[i] is the graph index of the neighbor i learned its route
	// from (-1 for the origin and unreachable ASes). A forging attacker
	// (AttackOriginHijack, AttackNextHopInterception) has no route either,
	// but its row carries the tail it claims — Parent the origin, Prep and
	// Len those of [] or [V] — so the parent chain of every AS it captures
	// runs through it and reconstructs the forged path.
	Parent []int32
	// Via[i] reports whether i's route traverses the attacker. Computed
	// during attack propagation; for plain propagation use ViaSet.
	Via []bool
}

func newResult(g *topology.Graph, origin int32) *Result {
	n := g.NumASes()
	r := &Result{
		g:      g,
		origin: origin,
		Class:  make([]Class, n),
		Len:    make([]int32, n),
		Prep:   make([]int16, n),
		Parent: make([]int32, n),
	}
	for i := range r.Parent {
		r.Parent[i] = -1
		r.Len[i] = -1
	}
	r.Len[origin] = 0
	return r
}

// resultInto resizes r for a fresh outcome on g, reusing its slices when
// they are large enough (the Scratch result slots rely on this to keep
// repeated propagations allocation-free). Rows are NOT cleared — the Fast
// engine's finishInto writes every row, defaults included, so a separate
// clearing pass here would touch the whole result twice. Via is reset to
// nil; attack propagation reattaches its own storage.
func resultInto(r *Result, g *topology.Graph, origin int32) *Result {
	n := g.NumASes()
	r.g = g
	r.origin = origin
	if cap(r.Class) < n {
		c := growCap(n, cap(r.Class))
		r.Class = make([]Class, c)
		r.Len = make([]int32, c)
		r.Prep = make([]int16, c)
		r.Parent = make([]int32, c)
	}
	r.Class = r.Class[:n]
	r.Len = r.Len[:n]
	r.Prep = r.Prep[:n]
	r.Parent = r.Parent[:n]
	r.Via = nil
	return r
}

// Clone returns a deep copy of r, detaching it from any Scratch that owns
// its storage (see PropagateScratch's ownership contract).
func (r *Result) Clone() *Result {
	out := &Result{
		g:      r.g,
		origin: r.origin,
		Class:  append([]Class(nil), r.Class...),
		Len:    append([]int32(nil), r.Len...),
		Prep:   append([]int16(nil), r.Prep...),
		Parent: append([]int32(nil), r.Parent...),
	}
	if r.Via != nil {
		out.Via = append([]bool(nil), r.Via...)
	}
	return out
}

// Graph returns the topology the result was computed on.
func (r *Result) Graph() *topology.Graph { return r.g }

// Origin returns the originating AS.
func (r *Result) Origin() bgp.ASN { return r.g.ASNAt(r.origin) }

// OriginIdx returns the origin's dense index.
func (r *Result) OriginIdx() int32 { return r.origin }

// Reachable reports whether asn has a route to the origin (the origin
// itself counts as reachable).
func (r *Result) Reachable(asn bgp.ASN) bool {
	i, ok := r.g.Index(asn)
	if !ok {
		return false
	}
	return r.ReachableIdx(i)
}

// ReachableIdx is Reachable by dense index.
func (r *Result) ReachableIdx(i int32) bool {
	return i == r.origin || r.Class[i] != ClassNone
}

// PathOf reconstructs the full AS-path (with prepends) in asn's RIB, i.e.
// the path as received: it starts at the next hop and ends with the origin
// repeated Prep times. Returns nil for the origin and unreachable ASes.
func (r *Result) PathOf(asn bgp.ASN) bgp.Path {
	i, ok := r.g.Index(asn)
	if !ok {
		return nil
	}
	return r.PathOfIdx(i)
}

// PathOfIdx is PathOf by dense index.
func (r *Result) PathOfIdx(i int32) bgp.Path {
	if i == r.origin || r.Class[i] == ClassNone {
		return nil
	}
	path := make(bgp.Path, 0, int(r.Len[i]))
	for j := r.Parent[i]; j != r.origin; j = r.Parent[j] {
		path = append(path, r.g.ASNAt(j))
	}
	originASN := r.g.ASNAt(r.origin)
	for k := int16(0); k < r.Prep[i]; k++ {
		path = append(path, originASN)
	}
	return path
}

// PathsInto extracts the received paths of the given monitors (dense
// graph indices; -1 for a monitor outside the graph) into the arena in
// one pass, appending one PathSpan per monitor to spans and returning it.
// Monitors without a route — unknown, unreachable, or the origin itself —
// get the empty span (Prep == 0), mirroring PathOfIdx's nil. Bodies land
// in a.buf and transit segments are interned, so two spans share their
// unique transit chain iff their Seg ids match. Spans alias the arena and
// die on its next Reset. Warmed steady state (every segment already
// interned, capacities grown) runs allocation-free.
func (r *Result) PathsInto(a *PathArena, monitors []int32, spans []PathSpan) []PathSpan {
	originASN := r.g.ASNAt(r.origin)
	for _, i := range monitors {
		if i < 0 || i == r.origin || r.Class[i] == ClassNone {
			spans = append(spans, PathSpan{Seg: -1})
			continue
		}
		off := int32(len(a.buf))
		for j := r.Parent[i]; j != r.origin; j = r.Parent[j] {
			a.buf = append(a.buf, r.g.ASNAt(j))
		}
		prep, pathOrigin := r.Prep[i], originASN
		if prep == 0 {
			// Captured by an origin hijack: the chain's last AS is the
			// forger, which the path names as its origin, once.
			last := len(a.buf) - 1
			prep, pathOrigin = 1, a.buf[last]
			a.buf = a.buf[:last]
		}
		body := a.buf[off:]
		// The parent-chain walk yields each AS once, so the body IS the
		// unique transit chain — intern it directly, no collapsing pass.
		spans = append(spans, PathSpan{
			Off:    off,
			Len:    int32(len(body)),
			Prep:   prep,
			Origin: pathOrigin,
			Seg:    a.Intern(body),
		})
	}
	return spans
}

// HopsToOrigin returns the number of distinct-AS hops from asn to the
// origin (its path's unique length), or -1 if unreachable.
func (r *Result) HopsToOrigin(asn bgp.ASN) int {
	i, ok := r.g.Index(asn)
	if !ok || r.Class[i] == ClassNone {
		if ok && i == r.origin {
			return 0
		}
		return -1
	}
	hops := 1 // origin run counts once
	for j := r.Parent[i]; j != r.origin; j = r.Parent[j] {
		hops++
	}
	return hops
}

// ViaSet computes, for every AS, whether its best path traverses through,
// meaning strictly includes, the given AS (the AS itself is not "via"
// itself; the origin is never via anything). This is the pollution set of
// the paper: every marked AS sends its traffic for the origin through asn.
func (r *Result) ViaSet(asn bgp.ASN) []bool {
	n := r.g.NumASes()
	return r.ViaSetInto(asn, make([]bool, n), make([]uint8, n), nil)
}

// ViaSetInto is ViaSet writing into caller-provided storage: via and state
// must each cover NumASes entries; stack is an optional spill buffer that
// grows as needed (pass nil to allocate one). It returns via. The sweep
// hot path calls it with Scratch-owned buffers (Scratch.ViaBuffers) to
// avoid per-call allocation.
func (r *Result) ViaSetInto(asn bgp.ASN, via []bool, state []uint8, stack []int32) []bool {
	n := r.g.NumASes()
	via = via[:n]
	target, ok := r.g.Index(asn)
	if !ok {
		for i := range via {
			via[i] = false
		}
		return via
	}
	const (
		unknown = 0
		yes     = 1
		no      = 2
	)
	state = state[:n]
	for i := range state {
		state[i] = unknown
	}
	state[r.origin] = no
	if stack == nil {
		stack = make([]int32, 0, 32)
	}
	for i := int32(0); i < int32(n); i++ {
		if state[i] != unknown {
			via[i] = state[i] == yes
			continue
		}
		if r.Class[i] == ClassNone {
			state[i] = no
			via[i] = false
			continue
		}
		// Walk up the parent chain until a decided node, then unwind.
		stack = stack[:0]
		j := i
		for state[j] == unknown {
			stack = append(stack, j)
			j = r.Parent[j]
		}
		verdict := state[j]
		for k := len(stack) - 1; k >= 0; k-- {
			node := stack[k]
			if r.Parent[node] == target {
				verdict = yes
			}
			state[node] = verdict
			via[node] = verdict == yes
		}
	}
	via[target] = false
	return via
}

// CountVia returns how many ASes route via asn (see ViaSet).
func (r *Result) CountVia(asn bgp.ASN) int {
	n := 0
	for _, v := range r.ViaSet(asn) {
		if v {
			n++
		}
	}
	return n
}

// PollutedCount returns the number of ASes whose best route traverses the
// attacker, using the Via slice filled in by attack propagation.
func (r *Result) PollutedCount() int {
	n := 0
	for _, v := range r.Via {
		if v {
			n++
		}
	}
	return n
}

// ReachableCount returns the number of ASes with a route, excluding the
// origin itself.
func (r *Result) ReachableCount() int {
	n := 0
	for i := range r.Class {
		if r.Class[i] != ClassNone {
			n++
		}
	}
	return n
}
