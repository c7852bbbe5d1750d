package topology

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aspp/internal/bgp"
)

// smallGraph builds the example topology used across this package's tests:
//
//	    10 ---- 20        (tier-1 peers)
//	   /  \    /  \
//	 30    40      50     (tier-2; 40 multihomed to 10 and 20)
//	 |      \     / |
//	100      200    \     (stubs)
//	          |     300
//	         peer(100,200)
func smallGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("build small graph: %v", err)
		}
	}
	must(b.AddP2P(10, 20))
	must(b.AddP2C(10, 30))
	must(b.AddP2C(10, 40))
	must(b.AddP2C(20, 40))
	must(b.AddP2C(20, 50))
	must(b.AddP2C(30, 100))
	must(b.AddP2C(40, 200))
	must(b.AddP2C(50, 300))
	must(b.AddP2P(100, 200))
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := smallGraph(t)
	if got := g.NumASes(); got != 8 {
		t.Errorf("NumASes = %d, want 8", got)
	}
	if got := g.NumLinks(); got != 9 {
		t.Errorf("NumLinks = %d, want 9", got)
	}
	if got := g.Providers(40); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("Providers(40) = %v, want [10 20]", got)
	}
	if got := g.Customers(10); len(got) != 2 || got[0] != 30 || got[1] != 40 {
		t.Errorf("Customers(10) = %v, want [30 40]", got)
	}
	if got := g.Peers(100); len(got) != 1 || got[0] != 200 {
		t.Errorf("Peers(100) = %v, want [200]", got)
	}
	if got := g.Degree(40); got != 3 {
		t.Errorf("Degree(40) = %d, want 3", got)
	}
	if g.Degree(999) != 0 {
		t.Error("Degree(unknown) != 0")
	}
}

// TestRelOf holds RelOf to hand-picked pairs of smallGraph, then to the link
// list of a generated 2,000-AS graph with sibling links grafted on: every
// link read from both ends, sampled non-adjacent pairs, unknown ASNs on
// either side and a == b.
func TestRelOf(t *testing.T) {
	g := smallGraph(t)
	tests := []struct {
		a, b bgp.ASN
		want RelTo
	}{
		{a: 40, b: 10, want: RelProvider},
		{a: 10, b: 40, want: RelCustomer},
		{a: 10, b: 20, want: RelPeer},
		{a: 100, b: 200, want: RelPeer},
		{a: 30, b: 50, want: RelNone},
		{a: 30, b: 999, want: RelNone},
		{a: 999, b: 30, want: RelNone},
	}
	for _, tt := range tests {
		if got := g.RelOf(tt.a, tt.b); got != tt.want {
			t.Errorf("RelOf(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}

	b := Rebuild(genTestGraph(t, 2000, 3))
	asns := b.asns
	rng := rand.New(rand.NewSource(9))
	for grafted := 0; grafted < 8; {
		x, y := asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]
		if x != y && !b.HasLink(x, y) {
			if err := b.AddS2S(x, y); err != nil {
				t.Fatal(err)
			}
			grafted++
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]bgp.ASN]RelTo{}
	for _, l := range g.Links() {
		fwd, back := RelCustomer, RelProvider // l.A is l.B's provider
		switch l.Rel {
		case PeerToPeer:
			fwd, back = RelPeer, RelPeer
		case SiblingToSibling:
			fwd, back = RelSibling, RelSibling
		}
		want[[2]bgp.ASN{l.A, l.B}], want[[2]bgp.ASN{l.B, l.A}] = fwd, back
	}
	seen := map[RelTo]int{}
	for pair, rel := range want {
		seen[rel]++
		if got := g.RelOf(pair[0], pair[1]); got != rel {
			t.Fatalf("RelOf(%v,%v) = %v, want %v", pair[0], pair[1], got, rel)
		}
	}
	if seen[RelSibling] != 16 || seen[RelPeer] == 0 || seen[RelProvider] == 0 {
		t.Fatalf("premise broken: relationships read %v", seen)
	}
	const unknown = bgp.ASN(4_000_000_000)
	if g.Has(unknown) {
		t.Fatalf("premise broken: %v is in the graph", unknown)
	}
	for k := 0; k < 20000; k++ {
		x, y := asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]
		if _, adjacent := want[[2]bgp.ASN{x, y}]; !adjacent {
			if got := g.RelOf(x, y); got != RelNone {
				t.Fatalf("RelOf(%v,%v) = %v for a non-adjacent pair", x, y, got)
			}
		}
		if g.RelOf(x, unknown) != RelNone || g.RelOf(unknown, x) != RelNone || g.RelOf(x, x) != RelNone {
			t.Fatalf("RelOf with %v, an unknown ASN or itself is not none", x)
		}
	}
}

func TestTiers(t *testing.T) {
	g := smallGraph(t)
	wants := map[bgp.ASN]int{10: 1, 20: 1, 30: 2, 40: 2, 50: 2, 100: 3, 200: 3, 300: 3}
	for asn, want := range wants {
		if got := g.Tier(asn); got != want {
			t.Errorf("Tier(%v) = %d, want %d", asn, got, want)
		}
	}
	t1 := g.Tier1s()
	if len(t1) != 2 || t1[0] != 10 || t1[1] != 20 {
		t.Errorf("Tier1s = %v, want [10 20]", t1)
	}
	if !g.IsStub(100) || g.IsStub(40) {
		t.Error("IsStub misclassified")
	}
}

// TestUpTopoOrder: the dense numbering is the up-topological order, so
// ascending index covers every AS once and puts each customer before
// each of its providers.
func TestUpTopoOrder(t *testing.T) {
	g := smallGraph(t)
	seen := make(map[bgp.ASN]bool)
	for i := int32(0); i < int32(g.NumASes()); i++ {
		seen[g.ASNAt(i)] = true
	}
	if len(seen) != g.NumASes() {
		t.Fatalf("dense order covers %d ASes, want %d", len(seen), g.NumASes())
	}
	for i := int32(0); i < int32(g.NumASes()); i++ {
		for _, p := range g.ProvidersIdx(i) {
			if i >= p {
				t.Errorf("customer %v not before provider %v in dense order",
					g.ASNAt(i), g.ASNAt(p))
			}
		}
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	b := NewBuilder()
	if err := b.AddP2C(1, 1); err == nil {
		t.Error("self p2c accepted")
	}
	if err := b.AddP2P(2, 2); err == nil {
		t.Error("self p2p accepted")
	}
	if err := b.AddAS(0); err == nil {
		t.Error("ASN 0 accepted")
	}
	if err := b.AddP2C(1, 2); err != nil {
		t.Fatalf("AddP2C: %v", err)
	}
	if err := b.AddP2C(1, 2); err != nil {
		t.Errorf("duplicate identical p2c rejected: %v", err)
	}
	if _, err := b.Build(); err != nil {
		t.Fatalf("Build after a repeat: %v", err)
	}
	// A conflict is Build's to find: the Add that brings it succeeds.
	for what, add := range map[string]func(*Builder) error{
		"reversed p2c":          func(b *Builder) error { return b.AddP2C(2, 1) },
		"p2p over existing p2c": func(b *Builder) error { return b.AddP2P(1, 2) },
	} {
		b := NewBuilder()
		if err := b.AddP2C(1, 2); err != nil {
			t.Fatalf("AddP2C: %v", err)
		}
		if err := add(b); err != nil {
			t.Errorf("%s: Add failed (%v), want Build to", what, err)
		}
		if _, err := b.Build(); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestBuildRejectsProviderCycle(t *testing.T) {
	b := NewBuilder()
	for _, e := range [][2]bgp.ASN{{1, 2}, {2, 3}, {3, 1}} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatalf("AddP2C: %v", err)
		}
	}
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted a provider cycle")
	}
}

func TestBuildEmpty(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Error("Build accepted empty topology")
	}
}

func TestTopByDegree(t *testing.T) {
	g := smallGraph(t)
	// 10, 20, 40 all have degree 3; ties break by lower ASN.
	all := g.TopByDegree(g.NumASes())
	if len(all) != g.NumASes() || all[0] != 10 || all[1] != 20 || all[2] != 40 {
		t.Fatalf("TopByDegree(%d) = %v, want all ASes led by [10 20 40]", g.NumASes(), all)
	}
	// Every count is a prefix of the one ranking, clamped to [0, NumASes].
	for _, tc := range []struct{ n, want int }{
		{3, 3}, {1, 1}, {0, 0}, {-1, 0}, {-1 << 40, 0}, {g.NumASes() + 1, g.NumASes()}, {100, g.NumASes()},
	} {
		if got := g.TopByDegree(tc.n); !slices.Equal(got, all[:tc.want]) {
			t.Errorf("TopByDegree(%d) = %v, want %v", tc.n, got, all[:tc.want])
		}
	}
}

func TestSerial2RoundTrip(t *testing.T) {
	g := smallGraph(t)
	var sb strings.Builder
	if err := WriteSerial2(&sb, g); err != nil {
		t.Fatalf("WriteSerial2: %v", err)
	}
	g2, err := ReadSerial2(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadSerial2: %v", err)
	}
	if g2.NumASes() != g.NumASes() || g2.NumLinks() != g.NumLinks() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			g2.NumASes(), g2.NumLinks(), g.NumASes(), g.NumLinks())
	}
	l1, l2 := g.Links(), g2.Links()
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Errorf("link %d: %v vs %v", i, l1[i], l2[i])
		}
	}
}

func TestReadSerial2Errors(t *testing.T) {
	cases := []string{
		"1|2",            // missing field
		"x|2|-1",         // bad ASN
		"1|2|7",          // bad code
		"1|2|-1\n2|1|-1", // conflicting direction
	}
	for _, in := range cases {
		if _, err := ReadSerial2(strings.NewReader(in)); err == nil {
			t.Errorf("ReadSerial2(%q) succeeded, want error", in)
		}
	}
}

func TestRebuildPreservesGraph(t *testing.T) {
	g := smallGraph(t)
	g2, err := Rebuild(g).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g2.NumASes() != g.NumASes() {
		t.Errorf("NumASes = %d, want %d", g2.NumASes(), g.NumASes())
	}
	l1, l2 := g.Links(), g2.Links()
	if len(l1) != len(l2) {
		t.Fatalf("link counts differ: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Errorf("link %d: %v vs %v", i, l1[i], l2[i])
		}
	}
	// Dense indices of common ASes are preserved.
	for _, asn := range g.ASNs() {
		i1, _ := g.Index(asn)
		i2, _ := g2.Index(asn)
		if i1 != i2 {
			t.Errorf("index of %v changed: %d -> %d", asn, i1, i2)
		}
	}
}

func TestGraphStringersAndPredicates(t *testing.T) {
	g := smallGraph(t)
	if ProviderToCustomer.String() != "p2c" || PeerToPeer.String() != "p2p" ||
		SiblingToSibling.String() != "s2s" {
		t.Error("Relationship names wrong")
	}
	for rel, want := range map[RelTo]string{
		RelNone: "none", RelProvider: "provider", RelCustomer: "customer",
		RelPeer: "peer", RelSibling: "sibling",
	} {
		if rel.String() != want {
			t.Errorf("RelTo(%d) = %q, want %q", rel, rel.String(), want)
		}
	}
	if !g.Has(10) || g.Has(9999) {
		t.Error("Has wrong")
	}
	if g.Tier(10) != 1 || g.Tier(100) == 1 {
		t.Error("Tier wrong")
	}
	if len(g.Siblings(10)) != 0 {
		t.Error("Siblings on sibling-free graph")
	}
	if g.HasSiblings() {
		t.Error("HasSiblings on sibling-free graph")
	}
}
