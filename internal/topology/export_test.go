package topology

import "aspp/internal/bgp"

// Customers returns the customers of asn, sorted by ASN (shared read-only
// storage; see Providers). Only tests ask for it.
func (g *Graph) Customers(asn bgp.ASN) []bgp.ASN {
	i, ok := g.index[asn]
	if !ok {
		return nil
	}
	return g.asnSpan(i, spanCust)
}

// Siblings returns the siblings of asn, sorted by ASN (shared read-only
// storage; see Providers). Only tests ask for it.
func (g *Graph) Siblings(asn bgp.ASN) []bgp.ASN {
	i, ok := g.index[asn]
	if !ok {
		return nil
	}
	return g.asnSpan(i, spanSib)
}

// Links enumerates every link once, sorted by A, then B. A p2c link names
// its provider as A; a peer or sibling link names the lower ASN as A.
func (g *Graph) Links() []Link {
	out := make([]Link, 0, g.NumLinks())
	g.walkLinks(g.asnOrder(), func(l Link) { out = append(out, l) })
	return out
}

// HasLink reports whether any relationship already exists between a and c.
// It scans the link list, O(m) a call: tests graft a few links with it, and
// the generator keeps a pair set of its own.
func (b *Builder) HasLink(a, c bgp.ASN) bool {
	ia, ok := b.index[a]
	if !ok {
		return false
	}
	ic, ok := b.index[c]
	if !ok {
		return false
	}
	for _, l := range b.links {
		if l.a == ia && l.b == ic || l.a == ic && l.b == ia {
			return true
		}
	}
	return false
}
