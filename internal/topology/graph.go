// Package topology models the AS-level Internet: autonomous systems joined
// by provider-customer and peer-peer business relationships, with tier
// classification and the index order the routing engines scan. It computes
// no routes: path statistics are read off the routing kernel
// (measure.MeasurePaths).
//
// Graphs are immutable once built (see Builder), which makes them safe to
// share across the concurrent experiment drivers without locking.
//
// # Memory layout
//
// Adjacency is stored in CSR (compressed sparse row) form: one flat backing
// array holds every AS's neighbors — providers, customers, peers, siblings,
// contiguously in that class order — and a span-offset table slices it per
// (AS, class). Dense indices are assigned in up-topological order of the
// customer->provider DAG at build time (every customer's index is smaller
// than all of its providers'), so the routing engines' DAG phases are plain
// ascending/descending index scans over sequential memory. Leaves — ASes
// with providers and no customer, peer or sibling, about four in five on an
// Internet-like graph — hold the lowest indices, [0, NumLeaves()): no other
// AS reads a leaf's route, so the routing kernel settles them in a loop of
// their own after every transit AS, and they are sorted by (provider count,
// lowest provider index, highest provider index, ASN) so that loop reads one
// provider's export for a run of its single-homed leaves. The other ASes
// follow in Kahn's order, always emitting the lowest-ASN ready AS. The
// numbering is canonical: it depends only on the AS set and link structure,
// never on registration order, so Rebuild reproduces a graph's indices
// exactly. ASNs() deliberately preserves registration order instead — every
// seeded sampling stream in the experiment drivers draws from it, and those
// streams must not shift when the internal numbering does.
//
// The Builder keeps every Add in a list, in insertion order, with the
// endpoints resolved to registration indices; it keeps no map of pairs
// (HasLink scans the list). Build checks the list once:
// bucketed by lower endpoint, with a stamp per upper endpoint, a repeat is
// dropped and the earliest link that contradicts an earlier one fails the
// build, in O(n + m). It lays the CSR out from what is left by degree
// counting — count each span, prefix-sum the offsets, write every link at
// its two endpoints' cursors — and needs no sort of the links: the
// numbering is canonical in the link set, and every span is sorted after
// renumbering, so the order links arrived in cannot show. Digest and
// WriteSerial2 read the ASN-sorted spans back out in one walk over the
// ASes in ASN order (a radix sort of n words), so no whole link list is
// ever sorted either way.
package topology

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"aspp/internal/bgp"
)

// Relationship classifies the business relationship on a link.
type Relationship uint8

const (
	// ProviderToCustomer means the first AS sells transit to the second.
	ProviderToCustomer Relationship = iota + 1
	// PeerToPeer means the ASes exchange traffic settlement-free.
	PeerToPeer
	// SiblingToSibling means the ASes belong to one organization and
	// provide mutual transit: routes cross the link in both directions
	// with their original policy class preserved. The paper's Fig. 11
	// anomaly (NTT–Limelight) hinges on such a link.
	SiblingToSibling
)

// String returns "p2c", "p2p" or "s2s".
func (r Relationship) String() string {
	switch r {
	case ProviderToCustomer:
		return "p2c"
	case PeerToPeer:
		return "p2p"
	case SiblingToSibling:
		return "s2s"
	default:
		return fmt.Sprintf("Relationship(%d)", uint8(r))
	}
}

// RelTo describes how a neighbor relates to a given AS, from that AS's
// point of view.
type RelTo uint8

const (
	// RelNone means the two ASes are not adjacent.
	RelNone RelTo = iota
	// RelProvider: the neighbor is my provider.
	RelProvider
	// RelCustomer: the neighbor is my customer.
	RelCustomer
	// RelPeer: the neighbor is my settlement-free peer.
	RelPeer
	// RelSibling: the neighbor is my sibling (same organization).
	RelSibling
)

// String names the relationship ("provider", "customer", "peer", "none").
func (r RelTo) String() string {
	switch r {
	case RelProvider:
		return "provider"
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelSibling:
		return "sibling"
	default:
		return "none"
	}
}

// CSR span classes, in backing-array order.
const (
	spanProv int32 = iota
	spanCust
	spanPeer
	spanSib
	spanClasses
)

// Graph is an immutable AS-level topology. ASes are indexed densely
// (0..NumASes-1) in up-topological order (see the package doc's memory
// layout notes); the index<->ASN mapping and relationship-partitioned CSR
// adjacency are fixed at build time.
type Graph struct {
	asns []bgp.ASN // dense (topological) index -> ASN
	enum []bgp.ASN // registration order, backing ASNs()

	index map[bgp.ASN]int32

	// CSR adjacency: adj holds every AS's neighbors contiguously
	// (providers, customers, peers, siblings), off[4i..4i+4] bound the
	// four spans of AS i; asnAdj mirrors adj as ASNs, each span sorted
	// ascending, backing the ASN-keyed accessors without per-call work.
	adj    []int32
	asnAdj []bgp.ASN
	off    []int32 // len 4n+1

	nLeaves   int32   // leaves hold the indices [0, nLeaves)
	nSiblings int     // total sibling adjacencies (2 per link)
	sibASes   []int32 // indices of the ASes with a sibling, ascending

	tier  []uint8   // 1 = top of hierarchy, increasing downward
	tier1 []bgp.ASN // provider-free core, sorted by ASN
}

// NumASes returns the number of ASes in the graph.
func (g *Graph) NumASes() int { return len(g.asns) }

// NumLeaves returns the number of leaves: ASes with at least one provider
// and no customer, peer or sibling. They hold the dense indices
// [0, NumLeaves()), below every other AS (see the package doc).
func (g *Graph) NumLeaves() int32 { return g.nLeaves }

// idxSpan returns the class-c neighbor span of AS i, capacity-clipped so a
// caller's append can never write into the adjacent span.
func (g *Graph) idxSpan(i, c int32) []int32 {
	lo, hi := g.off[4*i+c], g.off[4*i+c+1]
	return g.adj[lo:hi:hi]
}

// asnSpan is idxSpan over the sorted-ASN mirror.
func (g *Graph) asnSpan(i, c int32) []bgp.ASN {
	lo, hi := g.off[4*i+c], g.off[4*i+c+1]
	return g.asnAdj[lo:hi:hi]
}

// NumLinks returns the number of undirected adjacencies.
func (g *Graph) NumLinks() int {
	// Customer links are counted once (from the provider side); peer and
	// sibling adjacencies appear on both endpoints.
	n, peerAdj := 0, 0
	for i := int32(0); i < int32(len(g.asns)); i++ {
		n += len(g.idxSpan(i, spanCust))
		peerAdj += len(g.idxSpan(i, spanPeer))
	}
	return n + peerAdj/2 + g.nSiblings/2
}

// ASNs returns a copy of all AS numbers, in registration order — the order
// ASes were added to the Builder. This order is what every seeded sampling
// stream in the experiment drivers iterates, and it is deliberately
// independent of the internal topological index numbering.
func (g *Graph) ASNs() []bgp.ASN {
	out := make([]bgp.ASN, len(g.enum))
	copy(out, g.enum)
	return out
}

// Index returns the dense index of asn, or false if unknown.
func (g *Graph) Index(asn bgp.ASN) (int32, bool) {
	i, ok := g.index[asn]
	return i, ok
}

// ASNAt returns the ASN at dense index i.
func (g *Graph) ASNAt(i int32) bgp.ASN { return g.asns[i] }

// Has reports whether the AS is part of the graph.
func (g *Graph) Has(asn bgp.ASN) bool {
	_, ok := g.index[asn]
	return ok
}

// ProvidersIdx returns the provider indices of AS index i. The returned
// slice is internal storage: callers must treat it as read-only. Spans are
// sorted ascending by index.
func (g *Graph) ProvidersIdx(i int32) []int32 { return g.idxSpan(i, spanProv) }

// CustomersIdx returns the customer indices of AS index i (read-only).
func (g *Graph) CustomersIdx(i int32) []int32 { return g.idxSpan(i, spanCust) }

// PeersIdx returns the peer indices of AS index i (read-only).
func (g *Graph) PeersIdx(i int32) []int32 { return g.idxSpan(i, spanPeer) }

// SiblingsIdx returns the sibling indices of AS index i (read-only).
func (g *Graph) SiblingsIdx(i int32) []int32 { return g.idxSpan(i, spanSib) }

// HasSiblings reports whether the topology contains any sibling links.
func (g *Graph) HasSiblings() bool { return g.nSiblings > 0 }

// SiblingASes returns the indices of the ASes that have at least one
// sibling, ascending (read-only). The routing kernel exchanges sibling
// offers over this list instead of scanning every AS for a sibling span.
func (g *Graph) SiblingASes() []int32 { return g.sibASes }

// Providers returns the providers of asn, sorted by ASN; nil if asn is
// unknown or has none. The returned slice is shared read-only storage,
// precomputed at build time: callers must not modify it in place
// (appending is safe — the view is capacity-clipped).
func (g *Graph) Providers(asn bgp.ASN) []bgp.ASN {
	i, ok := g.index[asn]
	if !ok {
		return nil
	}
	return g.asnSpan(i, spanProv)
}

// Peers returns the peers of asn, sorted by ASN (shared read-only storage;
// see Providers).
func (g *Graph) Peers(asn bgp.ASN) []bgp.ASN {
	i, ok := g.index[asn]
	if !ok {
		return nil
	}
	return g.asnSpan(i, spanPeer)
}

// Degree returns the total number of neighbors of asn.
func (g *Graph) Degree(asn bgp.ASN) int {
	i, ok := g.index[asn]
	if !ok {
		return 0
	}
	return int(g.off[4*i+4] - g.off[4*i])
}

// RelOf reports how b relates to a: RelProvider means b is a's provider.
// It resolves a alone and binary-searches b in a's ASN-sorted spans, in
// class order; the span classes and the RelTo values share that order.
func (g *Graph) RelOf(a, b bgp.ASN) RelTo {
	ia, ok := g.index[a]
	if !ok {
		return RelNone
	}
	for c := spanProv; c < spanClasses; c++ {
		if _, found := slices.BinarySearch(g.asnSpan(ia, c), b); found {
			return RelProvider + RelTo(c)
		}
	}
	return RelNone
}

// Tier returns the AS's hierarchy tier: 1 for provider-free core ASes,
// and 1 + min(provider tiers) otherwise. Returns 0 for unknown ASes.
func (g *Graph) Tier(asn bgp.ASN) int {
	i, ok := g.index[asn]
	if !ok {
		return 0
	}
	return int(g.tier[i])
}

// TierIdx returns the tier of AS index i.
func (g *Graph) TierIdx(i int32) int { return int(g.tier[i]) }

// Tier1s returns all tier-1 ASes, sorted by ASN. The returned slice is
// shared read-only storage, precomputed at build time: callers that need
// to reorder it must copy first (appending is safe — the view is
// capacity-clipped).
func (g *Graph) Tier1s() []bgp.ASN {
	return g.tier1[:len(g.tier1):len(g.tier1)]
}

// IsStub reports whether the AS has no customers.
func (g *Graph) IsStub(asn bgp.ASN) bool {
	i, ok := g.index[asn]
	if !ok {
		return false
	}
	return g.off[4*i+spanCust] == g.off[4*i+spanCust+1]
}

// TopByDegree returns the n highest-degree ASes, ties broken by lower ASN —
// all of them for n above NumASes, none for n below 1. This is the paper's
// monitor-selection policy for the detection evaluation.
func (g *Graph) TopByDegree(n int) []bgp.ASN {
	type dd struct {
		asn bgp.ASN
		deg int
	}
	all := make([]dd, len(g.asns))
	for i, a := range g.asns {
		all[i] = dd{asn: a, deg: g.Degree(a)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].deg != all[b].deg {
			return all[a].deg > all[b].deg
		}
		return all[a].asn < all[b].asn
	})
	n = max(0, min(n, len(all)))
	out := make([]bgp.ASN, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].asn
	}
	return out
}

// asnOrder returns the dense indices sorted by ASN.
func (g *Graph) asnOrder() []int32 {
	order := make([]int32, len(g.asns))
	for i := range order {
		order[i] = int32(i)
	}
	sortByASN(order, g.asns)
	return order
}

// walkLinks calls f with every link once, sorted by A, then B: a p2c link
// names its provider as A, a peer or sibling link the lower ASN. It walks
// the ASes in order (asnOrder's), each merging its customers with its
// peers and siblings above its own ASN off the ASN-sorted spans; a pair has
// one relationship, so no two of them share a B.
func (g *Graph) walkLinks(order []int32, f func(Link)) {
	for _, i := range order {
		a := g.asns[i]
		cust, peer, sib := g.asnSpan(i, spanCust), g.asnSpan(i, spanPeer), g.asnSpan(i, spanSib)
		k, _ := slices.BinarySearch(peer, a)
		peer = peer[k:]
		k, _ = slices.BinarySearch(sib, a)
		sib = sib[k:]
		for len(cust)+len(peer)+len(sib) > 0 {
			next, rel := &cust, ProviderToCustomer
			if len(peer) > 0 && (len(*next) == 0 || peer[0] < (*next)[0]) {
				next, rel = &peer, PeerToPeer
			}
			if len(sib) > 0 && (len(*next) == 0 || sib[0] < (*next)[0]) {
				next, rel = &sib, SiblingToSibling
			}
			f(Link{A: a, B: (*next)[0], Rel: rel})
			*next = (*next)[1:]
		}
	}
}

// Link is one AS adjacency; for ProviderToCustomer, A is the provider.
type Link struct {
	A, B bgp.ASN
	Rel  Relationship
}

// String renders the link in serial-2 style ("A|B|-1" / "A|B|0"), with
// the legacy CAIDA serial-1 code "2" for siblings.
func (l Link) String() string { return string(l.appendSerial2(nil)) }

// appendSerial2 appends the link's serial-2 line, without the newline.
func (l Link) appendSerial2(buf []byte) []byte {
	buf = strconv.AppendUint(buf, uint64(l.A), 10)
	buf = append(buf, '|')
	buf = strconv.AppendUint(buf, uint64(l.B), 10)
	switch l.Rel {
	case PeerToPeer:
		return append(buf, "|0"...)
	case SiblingToSibling:
		return append(buf, "|2"...)
	default:
		return append(buf, "|-1"...)
	}
}
