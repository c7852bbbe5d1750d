package routing

import (
	"sort"

	"aspp/internal/bgp"
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
//   - Reset truncates buf and invalidates every outstanding PathSpan.
//     Callers that reuse an arena across rounds (EvalScratch, the survey
//     workers) must re-extract spans after each Reset.
//   - The intern table (segBuf/segs/segIdx) survives Reset: segment ids
//     are stable for the arena's lifetime, which is what lets a warmed
//     extract-reset-extract loop run allocation-free — steady state finds
//     every segment already interned.
//   - An arena is single-goroutine state, like routing.Scratch: share
//     nothing, or hand one arena to each worker.
//
// The zero value is ready to use after NewPathArena (the intern index map
// needs allocating).
type PathArena struct {
	buf []bgp.ASN // span bodies; truncated by Reset

	// Intern table for prepend-stripped transit segments. segs[id] spans
	// segBuf; segIdx maps a content hash to candidate ids (collisions are
	// resolved by comparing content).
	segBuf []bgp.ASN
	segs   []segSpan
	segIdx map[uint64][]int32

	tmp []bgp.ASN // scratch for collapsing duplicate runs before interning
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
	Prep int16
	// Origin is the originating AS.
	Origin bgp.ASN
	// Seg is the intern id of the path's unique transit chain
	// (consecutive duplicates collapsed), or -1 when uninterned. Two
	// spans from the SAME arena share a transit chain iff their Seg ids
	// are equal.
	Seg int32
}

// NewPathArena returns an empty arena.
func NewPathArena() *PathArena {
	return &PathArena{segIdx: make(map[uint64][]int32)}
}

// Reset drops every span body, invalidating all outstanding PathSpans.
// The intern table is retained (see the aliasing rules above).
func (a *PathArena) Reset() { a.buf = a.buf[:0] }

// Size returns the number of body elements currently stored, dead slots
// included — long-lived holders compare it against their live total to
// decide when to Compact.
func (a *PathArena) Size() int { return len(a.buf) }

// Body returns the raw body of a span: the received path with the
// trailing origin run stripped. The slice aliases the arena — valid only
// until the next Reset/Compact.
func (a *PathArena) Body(s PathSpan) []bgp.ASN {
	return a.buf[s.Off : s.Off+s.Len]
}

// SegBody returns the interned unique transit chain for a segment id.
// The slice aliases the intern table, which is stable across Reset.
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
	for k := int16(0); k < s.Prep; k++ {
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
	for k := int16(0); k < s.Prep; k++ {
		p = append(p, s.Origin)
	}
	return p
}

// Span describes non-empty p without storing its body: Len, Prep, Origin
// and Seg, the interned transit chain with consecutive duplicates
// collapsed. Off is left 0. Holders that keep one copy per distinct route
// (detect.Detector) look the route up by these fields before storing it.
func (a *PathArena) Span(p bgp.Path) PathSpan {
	prep := p.OriginPrepend()
	body := p[:len(p)-prep]
	a.tmp = collapseRuns(a.tmp[:0], body)
	return PathSpan{Len: int32(len(body)), Prep: int16(prep), Origin: p[len(p)-1], Seg: a.Intern(a.tmp)}
}

// Store appends non-empty p's body verbatim at the arena's end and returns
// its span. Nothing stored earlier moves.
func (a *PathArena) Store(p bgp.Path) PathSpan {
	sp := a.Span(p)
	sp.Off = int32(len(a.buf))
	a.buf = append(a.buf, p[:sp.Len]...)
	return sp
}

// Intern returns the stable segment id for body, adding it to the table
// on first sight. Ids are comparable only within one arena. The body is
// copied, so callers may pass views into buf or scratch storage.
func (a *PathArena) Intern(body []bgp.ASN) int32 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, asn := range body {
		h ^= uint64(asn)
		h *= 1099511628211
	}
	for _, id := range a.segIdx[h] {
		s := a.segs[id]
		if int(s.n) == len(body) && equalASN(a.segBuf[s.off:s.off+s.n], body) {
			return id
		}
	}
	off := int32(len(a.segBuf))
	a.segBuf = append(a.segBuf, body...)
	id := int32(len(a.segs))
	a.segs = append(a.segs, segSpan{off: off, n: int32(len(body))})
	a.segIdx[h] = append(a.segIdx[h], id)
	return id
}

// Compact rewrites the arena so only the given live spans remain,
// updating each span's offset in place. Every other outstanding span is
// invalidated. Used by long-lived holders (detect.Detector) once bodies
// no span refers to outweigh live ones.
func (a *PathArena) Compact(live []*PathSpan) {
	// Sorting by offset makes the moves strictly leftward, so the copy
	// never overwrites a body it has yet to move.
	sort.Slice(live, func(i, j int) bool { return live[i].Off < live[j].Off })
	w := int32(0)
	for _, s := range live {
		copy(a.buf[w:], a.buf[s.Off:s.Off+s.Len])
		s.Off = w
		w += s.Len
	}
	a.buf = a.buf[:w]
}

func equalASN(a, b []bgp.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
