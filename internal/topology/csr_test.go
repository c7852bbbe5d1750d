package topology

import (
	"sort"
	"strings"
	"testing"

	"aspp/internal/bgp"
)

// This file pins the CSR layout invariants the routing engines lean on:
// up-topological numbering, sorted spans, and capacity-clipped
// read-only views. They are internal properties (the public API is
// ASN-keyed and unchanged), but the Fast engine's sequential phase scans
// are only correct because of them, so they get their own tests.

func csrTestGraph(t *testing.T) *Graph {
	t.Helper()
	cfg := DefaultGenConfig(600)
	cfg.Seed = 31
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestProviderIndexAboveCustomer: dense indices are assigned in
// up-topological order at build time, so for every provider edge the
// provider's dense index is strictly greater than the customer's — the
// property that turns the engines' DAG phases into plain index scans.
// Phase 3's pull loop (descending scan reading exps[p] of each provider p)
// depends on it.
func TestProviderIndexAboveCustomer(t *testing.T) {
	for _, g := range []*Graph{smallGraph(t), csrTestGraph(t)} {
		for i := int32(0); i < int32(g.NumASes()); i++ {
			for _, p := range g.ProvidersIdx(i) {
				if p <= i {
					t.Fatalf("provider index %d <= customer index %d (%v -> %v)",
						p, i, g.ASNAt(p), g.ASNAt(i))
				}
			}
			for _, c := range g.CustomersIdx(i) {
				if c >= i {
					t.Fatalf("customer index %d >= provider index %d", c, i)
				}
			}
		}
	}
}

// TestCSRSpansMatchLinks: the per-class spans, flattened back out, must
// reproduce exactly the link set the graph reports — nothing dropped,
// duplicated or misclassified in the CSR assembly.
func TestCSRSpansMatchLinks(t *testing.T) {
	g := csrTestGraph(t)
	type edge struct {
		a, b bgp.ASN
		rel  Relationship
	}
	fromSpans := map[edge]int{}
	for i := int32(0); i < int32(g.NumASes()); i++ {
		a := g.ASNAt(i)
		for _, c := range g.CustomersIdx(i) {
			fromSpans[edge{a, g.ASNAt(c), ProviderToCustomer}]++
		}
		for _, p := range g.PeersIdx(i) {
			x, y := a, g.ASNAt(p)
			if y < x {
				x, y = y, x
			}
			fromSpans[edge{x, y, PeerToPeer}]++
		}
	}
	fromLinks := map[edge]int{}
	for _, l := range g.Links() {
		switch l.Rel {
		case ProviderToCustomer:
			fromLinks[edge{l.A, l.B, l.Rel}] += 1
		case PeerToPeer:
			fromLinks[edge{l.A, l.B, l.Rel}] += 2 // spans see both endpoints
		}
	}
	if len(fromSpans) != len(fromLinks) {
		t.Fatalf("spans enumerate %d distinct links, Links() %d", len(fromSpans), len(fromLinks))
	}
	for e, n := range fromLinks {
		if fromSpans[e] != n {
			t.Fatalf("link %v|%v (%v): spans count %d, want %d", e.a, e.b, e.rel, fromSpans[e], n)
		}
	}
	// Every edge is mirrored: b lists a as provider iff a lists b as customer.
	for i := int32(0); i < int32(g.NumASes()); i++ {
		for _, c := range g.CustomersIdx(i) {
			found := false
			for _, p := range g.ProvidersIdx(c) {
				if p == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%v lists %v as customer but is not in its provider span",
					g.ASNAt(i), g.ASNAt(c))
			}
		}
	}
}

// TestASNViewsSortedAndConsistent: the precomputed ASN adjacency views are
// sorted ascending and agree element-for-element with the index spans.
func TestASNViewsSortedAndConsistent(t *testing.T) {
	g := csrTestGraph(t)
	check := func(asn bgp.ASN, view []bgp.ASN, idxs []int32, what string) {
		t.Helper()
		if len(view) != len(idxs) {
			t.Fatalf("%v %s: ASN view has %d entries, index span %d", asn, what, len(view), len(idxs))
		}
		if !sort.SliceIsSorted(view, func(a, b int) bool { return view[a] < view[b] }) {
			t.Fatalf("%v %s view not sorted: %v", asn, what, view)
		}
		got := map[bgp.ASN]bool{}
		for _, v := range view {
			got[v] = true
		}
		for _, j := range idxs {
			if !got[g.ASNAt(j)] {
				t.Fatalf("%v %s: index span member %v missing from ASN view", asn, what, g.ASNAt(j))
			}
		}
	}
	for i := int32(0); i < int32(g.NumASes()); i++ {
		asn := g.ASNAt(i)
		check(asn, g.Providers(asn), g.ProvidersIdx(i), "providers")
		check(asn, g.Customers(asn), g.CustomersIdx(i), "customers")
		check(asn, g.Peers(asn), g.PeersIdx(i), "peers")
	}
	t1 := g.Tier1s()
	if !sort.SliceIsSorted(t1, func(a, b int) bool { return t1[a] < t1[b] }) {
		t.Fatalf("Tier1s not sorted: %v", t1)
	}
}

// TestAdjacencyViewsAppendSafe: the shared views are capacity-clipped, so
// a caller appending to one allocates instead of overwriting the adjacent
// span in the backing array.
func TestAdjacencyViewsAppendSafe(t *testing.T) {
	g := smallGraph(t)
	provBefore := append([]bgp.ASN(nil), g.Providers(40)...)
	peersBefore := append([]bgp.ASN(nil), g.Peers(40)...)

	grown := append(g.Customers(10), 99999)
	_ = append(g.Tier1s(), 88888)
	_ = append(g.ProvidersIdx(0), -1)

	if got := g.Providers(40); len(got) != len(provBefore) || got[0] != provBefore[0] {
		t.Fatalf("append to a view corrupted Providers(40): %v, want %v", got, provBefore)
	}
	if got := g.Peers(40); len(got) != len(peersBefore) {
		t.Fatalf("append to a view corrupted Peers(40): %v, want %v", got, peersBefore)
	}
	if grown[len(grown)-1] != 99999 {
		t.Fatal("appended copy lost its element")
	}
}

// TestRebuildReproducesIndices: the numbering is canonical — it depends
// only on the AS set and link structure, so Rebuild (which re-registers
// ASes in a different order) must reproduce every dense index exactly.
func TestRebuildReproducesIndices(t *testing.T) {
	g := csrTestGraph(t)
	g2, err := Rebuild(g).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumASes() != g.NumASes() {
		t.Fatalf("Rebuild changed AS count: %d vs %d", g2.NumASes(), g.NumASes())
	}
	for i := int32(0); i < int32(g.NumASes()); i++ {
		if g.ASNAt(i) != g2.ASNAt(i) {
			t.Fatalf("index %d: %v before rebuild, %v after", i, g.ASNAt(i), g2.ASNAt(i))
		}
	}
}

// TestLeavesNumberedFirst pins the leaf range the routing kernel's tail loop
// reads: [0, NumLeaves()) is exactly the set of ASes with providers and no
// other link, sorted by (provider count, lowest provider index, highest
// provider index, ASN); the numbering stays up-topological; and Rebuild and
// a serial-2 round trip reproduce it — on the default generator, the
// Internet preset at small n, and a graph with sibling links grafted on.
func TestLeavesNumberedFirst(t *testing.T) {
	internet, err := Generate(InternetGenConfig(3000))
	if err != nil {
		t.Fatal(err)
	}
	plain := csrTestGraph(t)
	b := Rebuild(plain)
	for i := int32(0); i < 40; i += 2 { // a sibling link between two leaves: neither stays one
		if err := b.AddS2S(plain.ASNAt(i), plain.ASNAt(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	grafted, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if grafted.NumLeaves() != plain.NumLeaves()-40 {
		t.Fatalf("%d leaves after grafting siblings onto 40, want %d", grafted.NumLeaves(), plain.NumLeaves()-40)
	}

	for name, g := range map[string]*Graph{"default": plain, "internet": internet, "sibling-grafted": grafted} {
		n, nl := int32(g.NumASes()), g.NumLeaves()
		if nl == 0 || nl == n {
			t.Fatalf("%s: %d leaves of %d ASes", name, nl, n)
		}
		type key struct{ np, lo, hi, asn int64 }
		var prev key
		for i := int32(0); i < n; i++ {
			provs := g.ProvidersIdx(i)
			leaf := len(provs) > 0 && len(g.CustomersIdx(i))+len(g.PeersIdx(i))+len(g.SiblingsIdx(i)) == 0
			if leaf != (i < nl) {
				t.Fatalf("%s: AS %v at index %d: leaf=%v, NumLeaves %d", name, g.ASNAt(i), i, leaf, nl)
			}
			for _, p := range provs {
				if p <= i {
					t.Fatalf("%s: provider index %d <= customer index %d", name, p, i)
				}
			}
			if !leaf {
				continue
			}
			// Spans are sorted by index: the ends are the lowest and highest.
			k := key{int64(len(provs)), int64(provs[0]), int64(provs[len(provs)-1]), int64(g.ASNAt(i))}
			if i > 0 && !(prev.np < k.np || prev.np == k.np && (prev.lo < k.lo || prev.lo == k.lo &&
				(prev.hi < k.hi || prev.hi == k.hi && prev.asn < k.asn))) {
				t.Fatalf("%s: leaf %d key %+v after %+v", name, i, k, prev)
			}
			prev = k
		}

		rebuilt, err := Rebuild(g).Build()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := WriteSerial2(&sb, g); err != nil {
			t.Fatal(err)
		}
		reread, err := ReadSerial2(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		for what, g2 := range map[string]*Graph{"Rebuild": rebuilt, "serial-2 round trip": reread} {
			if g2.NumLeaves() != nl || g2.NumASes() != g.NumASes() {
				t.Fatalf("%s %s: %d leaves of %d ASes, want %d of %d", name, what, g2.NumLeaves(), g2.NumASes(), nl, n)
			}
			for i := int32(0); i < n; i++ {
				if g.ASNAt(i) != g2.ASNAt(i) {
					t.Fatalf("%s %s: index %d holds %v, was %v", name, what, i, g2.ASNAt(i), g.ASNAt(i))
				}
			}
		}
	}
}
