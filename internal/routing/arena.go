package routing

import (
	"cmp"
	"hash/maphash"
	"slices"

	"aspp/internal/bgp"
	"aspp/internal/probe"
)

// PathArena is a reusable flat backing store for reconstructed AS paths.
// Instead of materializing one bgp.Path slice per (monitor, prefix,
// scenario), callers write path *bodies* into the arena's single buffer
// and keep PathSpan views; the full path is recovered on demand (body +
// origin run) and segment equality between two paths becomes an integer
// compare via the intern table.
//
// Layout and aliasing rules (DESIGN.md §5c):
//
//   - buf holds span bodies: the received path with its trailing origin
//     run stripped. Bodies are stored verbatim (intermediate prepends, if
//     any, are preserved), so materialization is exact.
//   - Reset starts a round: it empties buf and the intern table
//     (segBuf/segs/segIdx), keeping capacity, and invalidates every span
//     and segment id. Per-round users (detect.EvalScratch, relinfer's
//     collection, collector.ChurnStream) compare Seg only within a round,
//     and the arena stays as large as its largest round.
//   - The long-lived detect.Detector never resets: its segment ids are
//     stable until Compact, which keeps only the live spans' segments and
//     renumbers them.
//   - An arena is single-goroutine state, like routing.Scratch: share
//     nothing, or hand one arena to each worker.
//
// Make one with NewPathArena, which seeds the segment hash.
type PathArena struct {
	buf []bgp.ASN // span bodies; truncated by Reset

	// Intern table for prepend-stripped transit segments: segs[id] spans
	// segBuf, and segIdx finds an id by its chain's hash under seed.
	segBuf []bgp.ASN
	segs   []segSpan
	segIdx probe.Index
	seed   uint64

	tmp   []bgp.ASN // scratch for collapsing duplicate runs before interning
	renum []int32   // Compact's new id per old segment id
}

type segSpan struct{ off, n int32 }

// PathSpan is one path's view into a PathArena. The zero value (Prep ==
// 0) means "no route": every real received path carries at least one
// origin copy. The full path is Body + Origin repeated Prep times.
type PathSpan struct {
	// Off/Len delimit the body (path minus trailing origin run) in the
	// arena buffer.
	Off, Len int32
	// Prep is the number of origin copies the path ends with (0 = no
	// route, the empty-span sentinel).
	Prep int32
	// Origin is the originating AS.
	Origin bgp.ASN
	// Seg is the intern id of the path's unique transit chain
	// (consecutive duplicates collapsed), or -1 when uninterned. Two
	// spans from the SAME arena and round share a transit chain iff their
	// Seg ids are equal.
	Seg int32
}

// NewPathArena returns an empty arena. Its segment hash has a random seed:
// the detector interns chains a feed chooses, and a fixed hash would let
// the feed pick its collisions.
func NewPathArena() *PathArena {
	return &PathArena{seed: new(maphash.Hash).Sum64()}
}

// Reset drops every span body and interned segment, invalidating all
// outstanding PathSpans and segment ids; capacities are kept.
func (a *PathArena) Reset() {
	a.buf, a.segBuf, a.segs = a.buf[:0], a.segBuf[:0], a.segs[:0]
	a.segIdx.Clear()
}

// Size returns the elements the arena holds, span bodies and interned
// segments, dead ones included — long-lived holders weigh it against their
// live total to decide when to Compact.
func (a *PathArena) Size() int { return len(a.buf) + len(a.segBuf) }

// Body returns the raw body of a span: the received path with the
// trailing origin run stripped. The slice aliases the arena — valid only
// until the next Reset/Compact.
func (a *PathArena) Body(s PathSpan) []bgp.ASN {
	return a.buf[s.Off : s.Off+s.Len]
}

// SegBody returns the interned unique transit chain for a segment id.
// The slice aliases the intern table — valid until the next Reset/Compact.
func (a *PathArena) SegBody(id int32) []bgp.ASN {
	s := a.segs[id]
	return a.segBuf[s.off : s.off+s.n]
}

// Path materializes a span into a fresh bgp.Path — the thin-copy shim
// behind the public Path-returning APIs. Returns nil for the empty span.
func (a *PathArena) Path(s PathSpan) bgp.Path {
	if s.Prep == 0 {
		return nil
	}
	p := make(bgp.Path, 0, int(s.Len)+int(s.Prep))
	p = append(p, a.buf[s.Off:s.Off+s.Len]...)
	for k := int32(0); k < s.Prep; k++ {
		p = append(p, s.Origin)
	}
	return p
}

// PathWith materializes a span with head prepended once — equivalent to
// a.Path(s).Prepend(head, 1) in a single allocation (the collector-export
// shape relinfer consumes). Returns nil for the empty span.
func (a *PathArena) PathWith(head bgp.ASN, s PathSpan) bgp.Path {
	if s.Prep == 0 {
		return nil
	}
	p := make(bgp.Path, 0, 1+int(s.Len)+int(s.Prep))
	p = append(p, head)
	p = append(p, a.buf[s.Off:s.Off+s.Len]...)
	for k := int32(0); k < s.Prep; k++ {
		p = append(p, s.Origin)
	}
	return p
}

// Store appends non-empty p's body verbatim at the arena's end and returns
// its span: Len, Prep, Origin and Seg, the interned transit chain with
// consecutive duplicates collapsed. Nothing stored earlier moves.
func (a *PathArena) Store(p bgp.Path) PathSpan {
	prep := p.OriginPrepend()
	body := p[:len(p)-prep]
	a.tmp = collapseRuns(a.tmp[:0], body)
	sp := PathSpan{Off: int32(len(a.buf)), Len: int32(len(body)), Prep: int32(prep), Origin: p[len(p)-1], Seg: a.Intern(a.tmp)}
	a.buf = append(a.buf, body...)
	return sp
}

// Intern returns the segment id for body, adding it to the table on first
// sight. Ids are comparable only within one arena and name a chain only
// until the next Reset or Compact. The body is copied, so callers may pass
// views into buf or scratch storage.
func (a *PathArena) Intern(body []bgp.ASN) int32 {
	h := probe.Words(a.seed, body)
	if id := a.segIdx.Find(h, func(id int32) bool { return slices.Equal(a.SegBody(id), body) }); id >= 0 {
		return id
	}
	id := int32(len(a.segs))
	a.segs = append(a.segs, segSpan{off: int32(len(a.segBuf)), n: int32(len(body))})
	a.segBuf = append(a.segBuf, body...)
	a.segIdx.Put(h, id, a.segHash)
	return id
}

func (a *PathArena) segHash(id int32) uint64 { return probe.Words(a.seed, a.SegBody(id)) }

// Compact rewrites the arena so only the given live spans remain: their
// bodies and segments move left, and each span's Off and Seg are updated
// in place. Every other outstanding span and segment id is invalidated.
// Used by long-lived holders (detect.Detector) once bodies and segments no
// span refers to outweigh live ones.
func (a *PathArena) Compact(live []*PathSpan) {
	// Sorting by offset makes the moves strictly leftward, so the copy
	// never overwrites a body it has yet to move; segments lie in id order.
	slices.SortFunc(live, func(x, y *PathSpan) int { return cmp.Compare(x.Off, y.Off) })
	a.renum = slices.Grow(a.renum[:0], len(a.segs))[:len(a.segs)]
	clear(a.renum)
	w := int32(0)
	for _, s := range live {
		copy(a.buf[w:], a.buf[s.Off:s.Off+s.Len])
		s.Off = w
		w += s.Len
		a.renum[s.Seg] = 1 // kept; the loop below turns each mark into the new id
	}
	a.buf = a.buf[:w]
	a.segIdx.Clear()
	n, off := int32(0), 0
	for id, s := range a.segs {
		if a.renum[id] == 0 {
			continue
		}
		a.segBuf = append(a.segBuf[:off], a.segBuf[s.off:s.off+s.n]...)
		a.segs[n], a.renum[id] = segSpan{off: int32(off), n: s.n}, n
		a.segIdx.Put(probe.Words(a.seed, a.segBuf[off:]), n, a.segHash)
		n, off = n+1, len(a.segBuf)
	}
	a.segs, a.segBuf = a.segs[:n], a.segBuf[:off]
	for _, s := range live {
		s.Seg = a.renum[s.Seg]
	}
}

// collapseRuns appends body to dst with consecutive duplicates collapsed
// (the unique transit chain of a body whose origin run is already
// stripped).
func collapseRuns(dst, body []bgp.ASN) []bgp.ASN {
	for i, asn := range body {
		if i == 0 || asn != body[i-1] {
			dst = append(dst, asn)
		}
	}
	return dst
}
