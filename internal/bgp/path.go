// Package bgp provides the BGP data model used throughout the simulator:
// AS numbers, AS paths with prepending, routes, update messages, and
// serialization codecs for routing tables and update streams.
//
// The model is deliberately scoped to what inter-domain AS-level simulation
// needs. Paths are flat sequences of AS numbers (no AS_SET segments), which
// matches how the paper and modern BGP measurement treat AS-PATH attributes.
package bgp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ASN is an autonomous system number. The zero value is reserved and never
// identifies a real AS; APIs use it as "no AS".
type ASN uint32

// String renders the ASN in the conventional "AS7018" form.
func (a ASN) String() string {
	return "AS" + strconv.FormatUint(uint64(a), 10)
}

// ParseASN parses either a bare number ("7018") or the "AS7018" form.
func ParseASN(s string) (ASN, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "AS")
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("parse ASN %q: %w", s, err)
	}
	if n == 0 {
		return 0, errors.New("parse ASN: 0 is reserved")
	}
	return ASN(n), nil
}

// Path is a BGP AS-PATH: the sequence of AS numbers a route announcement has
// traversed, most recent sender first and the origin AS last. Prepending is
// represented literally, as repeated entries, e.g.
//
//	7018 3356 32934 32934 32934 32934 32934
//
// is AT&T's route to Facebook with the origin prepended five times.
type Path []ASN

// Origin returns the originating AS (the last element) and false if the path
// is empty.
func (p Path) Origin() (ASN, bool) {
	if len(p) == 0 {
		return 0, false
	}
	return p[len(p)-1], true
}

// UniqueLen returns the number of distinct hops, counting each run of
// consecutive duplicates once. This is the "real" topological length.
func (p Path) UniqueLen() int {
	n := 0
	for i := range p {
		if i == 0 || p[i] != p[i-1] {
			n++
		}
	}
	return n
}

// Unique returns the path with consecutive duplicates collapsed.
func (p Path) Unique() Path {
	if len(p) == 0 {
		return nil
	}
	out := make(Path, 0, p.UniqueLen())
	for i, a := range p {
		if i == 0 || a != p[i-1] {
			out = append(out, a)
		}
	}
	return out
}

// Contains reports whether asn appears anywhere in the path.
func (p Path) Contains(asn ASN) bool {
	for _, a := range p {
		if a == asn {
			return true
		}
	}
	return false
}

// OriginPrepend returns the length of the trailing origin run: how many
// times the origin AS appears at the end of the path. Returns 0 for an
// empty path.
func (p Path) OriginPrepend() int {
	if len(p) == 0 {
		return 0
	}
	origin := p[len(p)-1]
	n := 0
	for i := len(p) - 1; i >= 0 && p[i] == origin; i-- {
		n++
	}
	return n
}

// StripOriginPrepend returns a copy of the path with the trailing origin run
// reduced to keep entries. It never removes the final copy: keep is clamped
// to at least 1. If the run is already no longer than keep the path is
// returned unchanged (but still copied).
//
// This is exactly the attacker transformation from the paper: rewriting
// [M ... V V V V V] into [M ... V].
func (p Path) StripOriginPrepend(keep int) Path {
	if keep < 1 {
		keep = 1
	}
	run := p.OriginPrepend()
	if run <= keep {
		return p.Clone()
	}
	out := make(Path, 0, len(p)-run+keep)
	out = append(out, p[:len(p)-run]...)
	origin := p[len(p)-1]
	for i := 0; i < keep; i++ {
		out = append(out, origin)
	}
	return out
}

// Prepend returns a new path with asn inserted n times at the front, as a
// BGP speaker does when exporting a route.
func (p Path) Prepend(asn ASN, n int) Path {
	if n < 1 {
		n = 1
	}
	out := make(Path, 0, n+len(p))
	for i := 0; i < n; i++ {
		out = append(out, asn)
	}
	return append(out, p...)
}

// Clone returns a deep copy of the path.
func (p Path) Clone() Path {
	if p == nil {
		return nil
	}
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// Equal reports element-wise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// CommonSuffixLen returns the number of trailing elements p and q share —
// the detection algorithm's measure of how much of two routes' tails
// agree.
func (p Path) CommonSuffixLen(q Path) int {
	n := 0
	for n < len(p) && n < len(q) && p[len(p)-1-n] == q[len(q)-1-n] {
		n++
	}
	return n
}

// String renders the path as space-separated AS numbers, e.g.
// "7018 3356 32934 32934".
func (p Path) String() string {
	if len(p) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.Grow(len(p) * 6)
	for i, a := range p {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.FormatUint(uint64(a), 10))
	}
	return sb.String()
}

// ParsePath parses a space-separated AS-path string as produced by
// Path.String.
func ParsePath(s string) (Path, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, errors.New("parse path: empty")
	}
	p := make(Path, 0, len(fields))
	for _, f := range fields {
		a, err := ParseASN(f)
		if err != nil {
			return nil, fmt.Errorf("parse path: %w", err)
		}
		p = append(p, a)
	}
	return p, nil
}
