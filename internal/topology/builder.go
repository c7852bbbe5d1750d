package topology

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"aspp/internal/bgp"
)

// Builder accumulates ASes and links and assembles an immutable Graph.
// It rejects self-links, duplicate links, conflicting relationships, and —
// at Build time — provider-customer cycles, which would break both the real
// Internet's economics and the routing engines' DAG phases.
type Builder struct {
	asns  []bgp.ASN
	index map[bgp.ASN]int32
	links map[[2]bgp.ASN]Relationship // key sorted ascending
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		index: make(map[bgp.ASN]int32),
		links: make(map[[2]bgp.ASN]Relationship),
	}
}

// AddAS registers an AS. Adding the same AS twice is a no-op.
func (b *Builder) AddAS(asn bgp.ASN) error {
	if asn == 0 {
		return errors.New("topology: ASN 0 is reserved")
	}
	if _, ok := b.index[asn]; ok {
		return nil
	}
	b.index[asn] = int32(len(b.asns))
	b.asns = append(b.asns, asn)
	return nil
}

// key returns the canonical (sorted) map key for a link, plus whether the
// pair was swapped to canonicalize it.
func linkKey(a, c bgp.ASN) ([2]bgp.ASN, bool) {
	if a <= c {
		return [2]bgp.ASN{a, c}, false
	}
	return [2]bgp.ASN{c, a}, true
}

// relDir encodes a directed p2c relationship in the canonical key frame.
// We store ProviderToCustomer when key[0] is the provider, and the private
// sentinel below when key[1] is the provider.
const relC2P Relationship = 200

// AddP2C adds a provider-to-customer link. Both ASes are auto-registered.
func (b *Builder) AddP2C(provider, customer bgp.ASN) error {
	if provider == customer {
		return fmt.Errorf("topology: self link %v", provider)
	}
	if err := b.AddAS(provider); err != nil {
		return err
	}
	if err := b.AddAS(customer); err != nil {
		return err
	}
	key, swapped := linkKey(provider, customer)
	want := ProviderToCustomer
	if swapped {
		want = relC2P
	}
	if have, ok := b.links[key]; ok {
		if have == want {
			return nil
		}
		return fmt.Errorf("topology: conflicting relationship for %v-%v", provider, customer)
	}
	b.links[key] = want
	return nil
}

// AddP2P adds a settlement-free peering link. Both ASes are auto-registered.
func (b *Builder) AddP2P(x, y bgp.ASN) error {
	return b.addSymmetric(x, y, PeerToPeer)
}

// AddS2S adds a sibling (same-organization, mutual-transit) link. Both
// ASes are auto-registered.
func (b *Builder) AddS2S(x, y bgp.ASN) error {
	return b.addSymmetric(x, y, SiblingToSibling)
}

func (b *Builder) addSymmetric(x, y bgp.ASN, rel Relationship) error {
	if x == y {
		return fmt.Errorf("topology: self link %v", x)
	}
	if err := b.AddAS(x); err != nil {
		return err
	}
	if err := b.AddAS(y); err != nil {
		return err
	}
	key, _ := linkKey(x, y)
	if have, ok := b.links[key]; ok {
		if have == rel {
			return nil
		}
		return fmt.Errorf("topology: conflicting relationship for %v-%v", x, y)
	}
	b.links[key] = rel
	return nil
}

// HasLink reports whether any relationship already exists between a and c.
func (b *Builder) HasLink(a, c bgp.ASN) bool {
	key, _ := linkKey(a, c)
	_, ok := b.links[key]
	return ok
}

// NumASes returns the number of ASes registered so far.
func (b *Builder) NumASes() int { return len(b.asns) }

// Rebuild returns a Builder pre-loaded with an existing graph's ASes and
// links, so callers can extend a (generated) topology with extra actors —
// e.g. grafting a sibling pair onto an Internet for the Fig. 11 scenario.
// Dense indices of the common ASes survive a Rebuild+Build round trip as
// long as their link structure is unchanged, because the topological
// numbering is canonical in the AS set and links (see Build).
func Rebuild(g *Graph) *Builder {
	b := NewBuilder()
	for _, a := range g.enum {
		// Registration order preserves the ASNs() enumeration order.
		if err := b.AddAS(a); err != nil {
			panic("topology: rebuild: " + err.Error()) // ASNs come from a valid graph
		}
	}
	for _, l := range g.Links() {
		var err error
		switch l.Rel {
		case ProviderToCustomer:
			err = b.AddP2C(l.A, l.B)
		case PeerToPeer:
			err = b.AddP2P(l.A, l.B)
		case SiblingToSibling:
			err = b.AddS2S(l.A, l.B)
		}
		if err != nil {
			panic("topology: rebuild: " + err.Error())
		}
	}
	return b
}

// Build validates and freezes the topology: it assigns canonical
// up-topological dense indices and lays adjacency out in CSR form (see the
// package doc's memory layout notes).
func (b *Builder) Build() (*Graph, error) {
	n := len(b.asns)
	if n == 0 {
		return nil, errors.New("topology: no ASes")
	}
	// Assemble per-AS adjacency in registration numbering first, with
	// deterministic link insertion order.
	prov := make([][]int32, n)
	cust := make([][]int32, n)
	peer := make([][]int32, n)
	sib := make([][]int32, n)
	nSiblings := 0
	keys := make([][2]bgp.ASN, 0, len(b.links))
	for k := range b.links {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]bgp.ASN) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	for _, k := range keys {
		i0, i1 := b.index[k[0]], b.index[k[1]]
		switch b.links[k] {
		case ProviderToCustomer: // k[0] provider of k[1]
			cust[i0] = append(cust[i0], i1)
			prov[i1] = append(prov[i1], i0)
		case relC2P: // k[1] provider of k[0]
			cust[i1] = append(cust[i1], i0)
			prov[i0] = append(prov[i0], i1)
		case PeerToPeer:
			peer[i0] = append(peer[i0], i1)
			peer[i1] = append(peer[i1], i0)
		case SiblingToSibling:
			sib[i0] = append(sib[i0], i1)
			sib[i1] = append(sib[i1], i0)
			nSiblings += 2
		}
	}
	order, err := upTopoNumbering(b.asns, prov, cust)
	if err != nil {
		return nil, err
	}
	perm := make([]int32, n) // registration index -> dense (topological) index
	for newI, old := range order {
		perm[old] = int32(newI)
	}

	g := &Graph{
		asns:      make([]bgp.ASN, n),
		enum:      append([]bgp.ASN(nil), b.asns...),
		index:     make(map[bgp.ASN]int32, n),
		nSiblings: nSiblings,
	}
	for newI, old := range order {
		g.asns[newI] = b.asns[old]
		g.index[b.asns[old]] = int32(newI)
	}

	// CSR offsets, then both backing arrays in one pass each.
	g.off = make([]int32, 4*n+1)
	total := int32(0)
	for newI := 0; newI < n; newI++ {
		old := order[newI]
		for c, lst := range [4][]int32{prov[old], cust[old], peer[old], sib[old]} {
			total += int32(len(lst))
			g.off[4*newI+c+1] = total
		}
	}
	g.adj = make([]int32, total)
	g.asnAdj = make([]bgp.ASN, total)
	for newI := 0; newI < n; newI++ {
		old := order[newI]
		for c, lst := range [4][]int32{prov[old], cust[old], peer[old], sib[old]} {
			lo := int(g.off[4*newI+c])
			span := g.adj[lo : lo+len(lst)]
			for t, o := range lst {
				span[t] = perm[o]
			}
			slices.Sort(span)
			aspan := g.asnAdj[lo : lo+len(lst)]
			for t, ni := range span {
				aspan[t] = g.asns[ni]
			}
			slices.Sort(aspan)
		}
	}

	if nSiblings > 0 {
		for i := int32(0); i < int32(n); i++ {
			if len(g.idxSpan(i, spanSib)) > 0 {
				g.sibASes = append(g.sibASes, i)
			}
		}
	}

	// Dense indices are up-topological by construction.
	g.upTopo = make([]int32, n)
	for i := range g.upTopo {
		g.upTopo[i] = int32(i)
	}
	g.computeTiers()
	for i, t := range g.tier {
		if t == 1 {
			g.tier1 = append(g.tier1, g.asns[i])
		}
	}
	slices.Sort(g.tier1)
	return g, nil
}

// upTopoNumbering computes the canonical up-topological order of the
// customer->provider DAG: Kahn's algorithm always emitting the ready AS
// with the lowest ASN (a min-heap frontier). The result depends only on
// the AS set and link structure — never on registration order — so
// rebuilding a graph reproduces its dense numbering (Rebuild relies on
// this). Fails if the provider hierarchy has a cycle.
func upTopoNumbering(asns []bgp.ASN, prov, cust [][]int32) ([]int32, error) {
	n := len(asns)
	indeg := make([]int32, n) // number of customers not yet emitted
	for i := range cust {
		indeg[i] = int32(len(cust[i]))
	}
	heap := make([]int32, 0, n)
	push := func(u int32) {
		heap = append(heap, u)
		for c := len(heap) - 1; c > 0; {
			p := (c - 1) / 2
			if asns[heap[p]] <= asns[heap[c]] {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			c = p
		}
	}
	pop := func() int32 {
		u := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for p := 0; ; {
			c := 2*p + 1
			if c >= last {
				break
			}
			if c+1 < last && asns[heap[c+1]] < asns[heap[c]] {
				c++
			}
			if asns[heap[p]] <= asns[heap[c]] {
				break
			}
			heap[p], heap[c] = heap[c], heap[p]
			p = c
		}
		return u
	}
	for i := int32(0); i < int32(n); i++ {
		if indeg[i] == 0 {
			push(i)
		}
	}
	order := make([]int32, 0, n)
	for len(heap) > 0 {
		u := pop()
		order = append(order, u)
		for _, p := range prov[u] {
			if indeg[p]--; indeg[p] == 0 {
				push(p)
			}
		}
	}
	if len(order) != n {
		return nil, errors.New("topology: provider-customer cycle detected")
	}
	return order, nil
}

// computeTiers assigns tier 1 to provider-free ASes and 1+min(provider
// tier) to everyone else. Dense indices are up-topological, so a descending
// index walk labels every provider before all of its customers.
func (g *Graph) computeTiers() {
	n := int32(len(g.asns))
	g.tier = make([]uint8, n)
	for i := n - 1; i >= 0; i-- {
		provs := g.idxSpan(i, spanProv)
		if len(provs) == 0 {
			g.tier[i] = 1
			continue
		}
		best := uint8(255)
		for _, p := range provs {
			if g.tier[p] < best {
				best = g.tier[p]
			}
		}
		if best == 255 || best == 0 {
			// Defensive: providers are always labeled first in this order.
			best = 254
		}
		g.tier[i] = best + 1
	}
}
