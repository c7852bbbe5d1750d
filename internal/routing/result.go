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
	// reach is ReachableCount()+1 on a Result that owns its rows
	// (PropagateOwned, Shifted, Clone), counted once where they were written;
	// 0 means not counted — the Scratch slots, whose rows change under a
	// fixed pointer, never carry it.
	reach int32

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
	r.reach = 0
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
	out := new(Result)
	r.copyInto(out)
	out.reach = int32(r.ReachableCount()) + 1
	return out
}

// copyInto makes dst a copy of r on dst's own storage, which it grows only
// when too small.
func (r *Result) copyInto(dst *Result) {
	via := dst.Via
	*dst = Result{
		g:      r.g,
		origin: r.origin,
		reach:  r.reach,
		Class:  append(dst.Class[:0], r.Class...),
		Len:    append(dst.Len[:0], r.Len...),
		Prep:   append(dst.Prep[:0], r.Prep...),
		Parent: append(dst.Parent[:0], r.Parent...),
	}
	if r.Via != nil {
		dst.Via = append(via[:0], r.Via...)
	}
}

// Shifted returns a copy of r with d more origin copies on every route:
// Len and Prep grow by d on each row with a route. The origin's padding
// changes no AS's choice among the legitimate routes, so for r the no-attack
// outcome of a uniform announcement (no per-neighbor λ, no withheld session)
// with λ = l, Shifted(d) is row for row the outcome of l+d — sibling-bearing
// graphs included. A copy, not a rebase: r may be lent to legs still
// running, and Scratch's same-baseline repair compares pointers.
func (r *Result) Shifted(d int) *Result {
	out := r.Clone()
	for i, c := range out.Class {
		if c != ClassNone {
			out.Len[i] += int32(d)
			out.Prep[i] += int16(d)
		}
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
	return r.ViaSetInto(asn, new(Scratch), nil)
}

// ViaSetInto is ViaSet into s's via-walk buffers, valid until the next
// ViaSetInto on s (they are distinct from the attack slots' Via storage, so
// a baseline via-set coexists with an attack result on the same Scratch).
// With a nil cone every AS is decided. Otherwise only the listed indices
// are — each by walking its parent chain up to an AS already decided — and
// everything else reads false: exact whenever every AS routing via asn is
// listed, which Scratch.DeltaCone guarantees for the attacker of its leg.
// The buffers are reset by replaying the previous walk's visit list, so a
// cone-sized walk costs O(cone), not O(n).
func (r *Result) ViaSetInto(asn bgp.ASN, s *Scratch, cone []int32) []bool {
	const (
		unknown = 0
		yes     = 1
		no      = 2
	)
	n := r.g.NumASes()
	s.ensureViaBufs(n)
	for _, i := range s.viaSeen {
		s.viaBase[i], s.viaState[i] = false, unknown
	}
	via, state, seen, parent := s.viaBase[:n], s.viaState[:n], s.viaSeen[:0], r.Parent[:n]
	target, ok := r.g.Index(asn)
	if !ok {
		return via
	}
	state[r.origin] = no
	seen = append(seen, r.origin)
	count := len(cone)
	if cone == nil {
		count = n
	}
	for k := 0; k < count; k++ {
		i := int32(k)
		if cone != nil {
			i = cone[k]
		}
		if state[i] != unknown || parent[i] < 0 {
			continue // decided, or no route: via stays false
		}
		// Walk up the parent chain until a decided node, then unwind; the
		// chain is the tail of the visit list.
		start, j := len(seen), i
		for ; state[j] == unknown; j = parent[j] {
			seen = append(seen, j)
		}
		verdict := state[j]
		for c := len(seen) - 1; c >= start; c-- {
			node := seen[c]
			if parent[node] == target {
				verdict = yes
			}
			state[node] = verdict
			via[node] = verdict == yes
		}
	}
	s.viaSeen = seen
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
	if r.reach > 0 {
		return int(r.reach) - 1
	}
	n := 0
	for i := range r.Class {
		if r.Class[i] != ClassNone {
			n++
		}
	}
	return n
}
