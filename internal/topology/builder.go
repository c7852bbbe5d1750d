package topology

import (
	"errors"
	"fmt"
	"slices"

	"aspp/internal/bgp"
)

// Builder accumulates ASes and links and assembles an immutable Graph.
// An Add rejects what its own call shows: a self link or ASN 0. Build
// rejects the rest: a link that contradicts an earlier one on its pair (a
// second relationship, or the opposite p2c direction) and provider-customer
// cycles, which would break both the real Internet's economics and the
// routing engines' DAG phases. Repeating a link, either way round for a
// symmetric one, is a no-op.
type Builder struct {
	asns  []bgp.ASN
	index map[bgp.ASN]int32
	// links holds every Add in insertion order, repeats and conflicts
	// included, endpoints resolved to registration indices; Build sorts
	// them out in one pass (distinctLinks).
	links []builderLink
}

// builderLink is one added link between registration indices a and b, in
// the order the Add named them; for ProviderToCustomer, a is the provider.
type builderLink struct {
	a, b int32
	rel  Relationship
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return newBuilderSized(0, 0) }

// newBuilderSized returns an empty Builder with room for n ASes and m links.
func newBuilderSized(n, m int) *Builder {
	return &Builder{
		asns:  make([]bgp.ASN, 0, n),
		index: make(map[bgp.ASN]int32, n),
		links: make([]builderLink, 0, m),
	}
}

// AddAS registers an AS. Adding the same AS twice is a no-op.
func (b *Builder) AddAS(asn bgp.ASN) error {
	_, err := b.register(asn)
	return err
}

// register returns asn's registration index, adding the AS if it is new.
func (b *Builder) register(asn bgp.ASN) (int32, error) {
	if asn == 0 {
		return 0, errors.New("topology: ASN 0 is reserved")
	}
	if i, ok := b.index[asn]; ok {
		return i, nil
	}
	i := int32(len(b.asns))
	b.index[asn] = i
	b.asns = append(b.asns, asn)
	return i, nil
}

// AddP2C adds a provider-to-customer link. Both ASes are auto-registered.
func (b *Builder) AddP2C(provider, customer bgp.ASN) error {
	return b.add(provider, customer, ProviderToCustomer)
}

// AddP2P adds a settlement-free peering link. Both ASes are auto-registered.
func (b *Builder) AddP2P(x, y bgp.ASN) error {
	return b.add(x, y, PeerToPeer)
}

// AddS2S adds a sibling (same-organization, mutual-transit) link. Both
// ASes are auto-registered.
func (b *Builder) AddS2S(x, y bgp.ASN) error {
	return b.add(x, y, SiblingToSibling)
}

// add records the link x-y (x the provider of a p2c link). Whether it
// repeats or contradicts an earlier link is Build's question.
func (b *Builder) add(x, y bgp.ASN, rel Relationship) error {
	if x == y {
		return fmt.Errorf("topology: self link %v", x)
	}
	ix, err := b.register(x)
	if err != nil {
		return err
	}
	iy, err := b.register(y)
	if err != nil {
		return err
	}
	b.record(ix, iy, rel)
	return nil
}

// link is add for two registered ASes named by registration index.
func (b *Builder) link(ia, ib int32, rel Relationship) error {
	if ia == ib {
		return fmt.Errorf("topology: self link %v", b.asns[ia])
	}
	b.record(ia, ib, rel)
	return nil
}

// record appends a link between two registration indices.
func (b *Builder) record(ia, ib int32, rel Relationship) {
	b.links = append(b.links, builderLink{a: ia, b: ib, rel: rel})
}

// HasLink reports whether any relationship already exists between a and c.
// It scans the link list, O(m) a call: it is for grafting a few links onto
// a graph, and the generator keeps a pair set of its own.
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

// conflictError is Build's report of the earliest link that contradicts an
// earlier one on its pair; link is its insertion index, which ReadSerial2
// turns back into a line number.
type conflictError struct {
	link int
	x, y bgp.ASN
}

func (e *conflictError) Error() string {
	return fmt.Sprintf("topology: conflicting relationship for %v-%v", e.x, e.y)
}

// distinctLinks returns the link list with each pair kept at its first
// occurrence — the list itself when nothing repeats — or a *conflictError
// for the earliest link that contradicts an earlier one. The links are
// bucketed by their lower endpoint in insertion order, and a stamp per
// upper endpoint finds the first link to it from the current bucket:
// O(n + m) over flat arrays.
func (b *Builder) distinctLinks() ([]builderLink, error) {
	n, links := len(b.asns), b.links
	off := make([]int32, n+1)
	for _, l := range links {
		off[min(l.a, l.b)+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	bucket := make([]int32, len(links))
	fill := slices.Clone(off[:n])
	for k, l := range links {
		lo := min(l.a, l.b)
		bucket[fill[lo]] = int32(k)
		fill[lo]++
	}
	type stamp struct{ bucket, first int32 } // bucket is lower endpoint + 1
	seen := make([]stamp, n)
	var repeat []bool // by insertion index, allocated at the first repeat
	conflict := len(links)
	for lo := int32(0); lo < int32(n); lo++ {
		for _, k := range bucket[off[lo]:off[lo+1]] {
			l := links[k]
			s := &seen[max(l.a, l.b)]
			if s.bucket != lo+1 {
				*s = stamp{lo + 1, k}
				continue
			}
			if f := links[s.first]; f.rel != l.rel || l.rel == ProviderToCustomer && f.a != l.a {
				conflict = min(conflict, int(k))
			}
			if repeat == nil {
				repeat = make([]bool, len(links))
			}
			repeat[k] = true
		}
	}
	if conflict < len(links) {
		l := links[conflict]
		return nil, &conflictError{link: conflict, x: b.asns[l.a], y: b.asns[l.b]}
	}
	if repeat == nil {
		return links, nil
	}
	kept := make([]builderLink, 0, len(links))
	for k, l := range links {
		if !repeat[k] {
			kept = append(kept, l)
		}
	}
	return kept, nil
}

// Rebuild returns a Builder pre-loaded with an existing graph's ASes and
// links, so callers can extend a (generated) topology with extra actors —
// e.g. grafting a sibling pair onto an Internet for the Fig. 11 scenario.
// Dense indices of the common ASes survive a Rebuild+Build round trip as
// long as their link structure is unchanged, because the topological
// numbering is canonical in the AS set and links (see Build).
func Rebuild(g *Graph) *Builder {
	n, nLinks := len(g.enum), g.NumLinks()
	b := &Builder{
		// Registration order preserves the ASNs() enumeration order.
		asns:  slices.Clone(g.enum),
		index: make(map[bgp.ASN]int32, n),
		links: make([]builderLink, 0, nLinks),
	}
	reg := make([]int32, n) // dense index -> registration index
	for ri, a := range g.enum {
		b.index[a] = int32(ri)
		reg[g.index[a]] = int32(ri)
	}
	// A valid graph holds every link once per endpoint: no Add checks.
	for i := int32(0); i < int32(n); i++ {
		for _, c := range g.idxSpan(i, spanCust) {
			b.record(reg[i], reg[c], ProviderToCustomer)
		}
		for _, p := range g.idxSpan(i, spanPeer) {
			if i < p {
				b.record(reg[i], reg[p], PeerToPeer)
			}
		}
		for _, s := range g.idxSpan(i, spanSib) {
			if i < s {
				b.record(reg[i], reg[s], SiblingToSibling)
			}
		}
	}
	return b
}

// Build validates and freezes the topology: it drops repeated links, fails
// on the earliest conflicting one, assigns canonical up-topological dense
// indices and lays adjacency out in CSR form (see the package doc's memory
// layout notes). The link list is never sorted: the numbering depends only
// on the AS set and the links, and every span is sorted once it holds dense
// indices.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.asns)
	if n == 0 {
		return nil, errors.New("topology: no ASes")
	}
	links, err := b.distinctLinks()
	if err != nil {
		return nil, err
	}
	// The customer->provider DAG in registration numbering, as one CSR of
	// provider lists plus customer counts, and which ASes have a peer or
	// sibling — all the numbering reads.
	provOff := make([]int32, n+1)
	nCust := make([]int32, n)
	lateral := make([]bool, n)
	for _, l := range links {
		if l.rel == ProviderToCustomer {
			provOff[l.b+1]++
			nCust[l.a]++
		} else {
			lateral[l.a], lateral[l.b] = true, true
		}
	}
	for i := 0; i < n; i++ {
		provOff[i+1] += provOff[i]
	}
	provAdj := make([]int32, provOff[n])
	fill := slices.Clone(provOff[:n])
	for _, l := range links {
		if l.rel == ProviderToCustomer {
			provAdj[fill[l.b]] = l.a
			fill[l.b]++
		}
	}
	order, nLeaves, err := upTopoNumbering(b.asns, provOff, provAdj, nCust, lateral)
	if err != nil {
		return nil, err
	}
	perm := make([]int32, n) // registration index -> dense (topological) index
	for newI, old := range order {
		perm[old] = int32(newI)
	}

	g := &Graph{
		asns:    make([]bgp.ASN, n),
		enum:    slices.Clone(b.asns),
		index:   make(map[bgp.ASN]int32, n),
		nLeaves: nLeaves,
	}
	for newI, old := range order {
		g.asns[newI] = b.asns[old]
		g.index[b.asns[old]] = int32(newI)
	}

	// CSR by degree counting: span sizes, offsets, then every link written
	// at its two endpoints' cursors.
	spans := func(l builderLink) (sa, sb int32) { // a's span for b, b's span for a
		switch l.rel {
		case ProviderToCustomer:
			return 4*perm[l.a] + spanCust, 4*perm[l.b] + spanProv
		case PeerToPeer:
			return 4*perm[l.a] + spanPeer, 4*perm[l.b] + spanPeer
		default:
			return 4*perm[l.a] + spanSib, 4*perm[l.b] + spanSib
		}
	}
	g.off = make([]int32, 4*n+1)
	for _, l := range links {
		sa, sb := spans(l)
		g.off[sa+1]++
		g.off[sb+1]++
		if l.rel == SiblingToSibling {
			g.nSiblings += 2
		}
	}
	for s := 0; s < 4*n; s++ {
		g.off[s+1] += g.off[s]
	}
	g.adj = make([]int32, g.off[4*n])
	g.asnAdj = make([]bgp.ASN, g.off[4*n])
	fill = slices.Clone(g.off[:4*n])
	for _, l := range links {
		sa, sb := spans(l)
		g.adj[fill[sa]] = perm[l.b]
		fill[sa]++
		g.adj[fill[sb]] = perm[l.a]
		fill[sb]++
	}
	for s := 0; s < 4*n; s++ {
		lo, hi := g.off[s], g.off[s+1]
		if lo == hi {
			continue
		}
		span, aspan := g.adj[lo:hi], g.asnAdj[lo:hi]
		slices.Sort(span)
		for t, ni := range span {
			aspan[t] = g.asns[ni]
		}
		slices.Sort(aspan)
	}

	if g.nSiblings > 0 {
		for i := int32(0); i < int32(n); i++ {
			if len(g.idxSpan(i, spanSib)) > 0 {
				g.sibASes = append(g.sibASes, i)
			}
		}
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
// customer->provider DAG and how many leaves open it. Leaves — ASes with
// providers and no other link — come first, sorted by (provider count,
// lowest provider index, highest provider index, ASN), so leaves of one
// provider sit side by side. Kahn's algorithm, always emitting the ready AS
// with the lowest ASN (a min-heap frontier), numbers the rest once the
// leaves' edges are out of their providers' in-degree. Every provider has
// a customer, so it is no leaf and lands above all of its leaves. The
// result depends only on the AS set and link structure — never on
// registration order — so rebuilding a graph reproduces its dense
// numbering (Rebuild relies on this). Fails if the provider hierarchy has
// a cycle.
//
// The DAG arrives in registration numbering: AS u's providers are
// provAdj[provOff[u]:provOff[u+1]], indeg[u] counts its customers (the
// count is consumed), and lateral[u] is set when u has a peer or sibling.
func upTopoNumbering(asns []bgp.ASN, provOff, provAdj, indeg []int32, lateral []bool) ([]int32, int32, error) {
	n := len(asns)
	var leaves []int32
	for u := int32(0); u < int32(n); u++ {
		if indeg[u] == 0 && !lateral[u] && provOff[u] < provOff[u+1] {
			leaves = append(leaves, u)
		}
	}
	for _, u := range leaves {
		indeg[u] = -1 // never ready: the leaves are numbered apart
		for _, p := range provAdj[provOff[u]:provOff[u+1]] {
			indeg[p]--
		}
	}
	nLeaves := len(leaves)
	heap := make([]int32, 0, n-nLeaves)
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
	pos := make([]int32, n) // registration index -> dense index, transit ASes only
	for i := int32(0); i < int32(n); i++ {
		if indeg[i] == 0 {
			push(i)
		}
	}
	order := make([]int32, nLeaves, n)
	for len(heap) > 0 {
		u := pop()
		pos[u] = int32(len(order))
		order = append(order, u)
		for _, p := range provAdj[provOff[u]:provOff[u+1]] {
			if indeg[p]--; indeg[p] == 0 {
				push(p)
			}
		}
	}
	if len(order) != n {
		return nil, 0, errors.New("topology: provider-customer cycle detected")
	}

	orderLeaves(order[:nLeaves], leaves, asns, provOff, provAdj, pos)
	return order, int32(nLeaves), nil
}

// orderLeaves writes leaves (registration indices) into out sorted by
// (provider count, lowest provider index, highest provider index, ASN),
// with each provider's dense index read off pos. It needs no comparison
// sort: the leaves are put in ASN order, then in three stable counting
// sorts by the other keys, last key first.
func orderLeaves(out, leaves []int32, asns []bgp.ASN, provOff, provAdj, pos []int32) {
	n := len(asns)
	sortByASN(leaves, asns)
	lo, hi := make([]int32, n), make([]int32, n) // by registration index
	for _, u := range leaves {
		lo[u] = int32(n)
		for _, p := range provAdj[provOff[u]:provOff[u+1]] {
			lo[u], hi[u] = min(lo[u], pos[p]), max(hi[u], pos[p])
		}
	}
	count, next := make([]int32, n+1), make([]int32, len(leaves))
	for _, key := range []func(u int32) int32{
		func(u int32) int32 { return hi[u] },
		func(u int32) int32 { return lo[u] },
		func(u int32) int32 { return provOff[u+1] - provOff[u] },
	} {
		clear(count)
		for _, u := range leaves {
			count[key(u)+1]++
		}
		for k := 1; k <= n; k++ {
			count[k] += count[k-1]
		}
		for _, u := range leaves {
			next[count[key(u)]] = u
			count[key(u)]++
		}
		leaves, next = next, leaves
	}
	copy(out, leaves)
}

// sortByASN sorts the indices idx by asns[idx], in place: an LSD radix
// sort in two stable counting passes, low 16 bits first. The ASNs are
// distinct, so the ASN alone is the key.
func sortByASN(idx []int32, asns []bgp.ASN) {
	tmp, count := make([]int32, len(idx)), make([]int32, 1<<16+1)
	for shift := 0; shift < 32; shift += 16 {
		clear(count)
		for _, u := range idx {
			count[int(uint16(asns[u]>>shift))+1]++
		}
		for d := 1; d < len(count); d++ {
			count[d] += count[d-1]
		}
		for _, u := range idx {
			d := uint16(asns[u] >> shift)
			tmp[count[d]] = u
			count[d]++
		}
		idx, tmp = tmp, idx // after the second pass, idx is the caller's slice
	}
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
