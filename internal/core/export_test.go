package core

import (
	"slices"

	"aspp/internal/bgp"
	"aspp/internal/routing"
)

// PollutedASes lists the ASes that adopt the bogus route, sorted by ASN.
func (im *Impact) PollutedASes() []bgp.ASN {
	g := im.attacked.Graph()
	var out []bgp.ASN
	for i, v := range im.attacked.Via {
		if v && int32(i) != im.atkIdx {
			out = append(out, g.ASNAt(int32(i)))
		}
	}
	slices.Sort(out)
	return out
}

// IsPolluted reports whether asn adopted the bogus route.
func (im *Impact) IsPolluted(asn bgp.ASN) bool {
	i, ok := im.attacked.Graph().Index(asn)
	return ok && im.attacked.Via[i]
}

// HopsFromAttacker is HopsFromAttackerIdx by ASN; -1 for an unknown AS.
func (im *Impact) HopsFromAttacker(asn bgp.ASN) int {
	i, ok := im.attacked.Graph().Index(asn)
	if !ok {
		return -1
	}
	return im.HopsFromAttackerIdx(i)
}

// viaCount is how many ASes hold a via bit in r.
func viaCount(r *routing.Result) int {
	n := 0
	for _, v := range r.Via {
		if v {
			n++
		}
	}
	return n
}
