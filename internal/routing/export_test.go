package routing

import "aspp/internal/bgp"

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

// ViaSet is ViaSetInto over every AS, on storage of its own.
func (r *Result) ViaSet(asn bgp.ASN) []bool {
	return r.ViaSetInto(asn, new(Scratch), nil)
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
