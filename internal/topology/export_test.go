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
