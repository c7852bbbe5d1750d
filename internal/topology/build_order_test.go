package topology

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aspp/internal/bgp"
)

// Build reads the Builder's link list in insertion order and never sorts
// it; that is sound only because the dense numbering is canonical in the
// AS set and links and every span is sorted after renumbering. These tests
// hold it to that: whatever order the links arrive in, the graph is the
// same graph, array for array.

// requireSameGraph compares everything a Graph stores.
func requireSameGraph(t *testing.T, what string, want, got *Graph) {
	t.Helper()
	if Digest(got) != Digest(want) {
		t.Fatalf("%s: digest %#x, want %#x", what, Digest(got), Digest(want))
	}
	if !slices.Equal(got.ASNs(), want.ASNs()) {
		t.Fatalf("%s: ASNs() order differs", what)
	}
	if !slices.Equal(got.asns, want.asns) {
		t.Fatalf("%s: dense numbering differs", what)
	}
	if !slices.Equal(got.tier, want.tier) || !slices.Equal(got.tier1, want.tier1) {
		t.Fatalf("%s: tiers differ", what)
	}
	if !slices.Equal(got.off, want.off) || !slices.Equal(got.adj, want.adj) || !slices.Equal(got.asnAdj, want.asnAdj) {
		t.Fatalf("%s: adjacency spans differ", what)
	}
	if got.nSiblings != want.nSiblings || !slices.Equal(got.sibASes, want.sibASes) {
		t.Fatalf("%s: sibling tables differ", what)
	}
}

// addLink adds l, naming a symmetric link's endpoints either way round.
func addLink(t *testing.T, b *Builder, l Link, flip bool) {
	t.Helper()
	x, y := l.A, l.B
	if flip && l.Rel != ProviderToCustomer {
		x, y = y, x
	}
	var err error
	switch l.Rel {
	case ProviderToCustomer:
		err = b.AddP2C(x, y)
	case PeerToPeer:
		err = b.AddP2P(x, y)
	case SiblingToSibling:
		err = b.AddS2S(x, y)
	}
	if err != nil {
		t.Fatalf("add %v: %v", l, err)
	}
}

// graftSiblings returns plain with 12 sibling links grafted on: between
// random non-adjacent pairs, and from an AS to one of its providers'
// providers (fig11's provider cycle through an organization).
func graftSiblings(t *testing.T, plain *Graph, rng *rand.Rand) *Graph {
	t.Helper()
	b := Rebuild(plain)
	asns := plain.ASNs()
	for grafted := 0; grafted < 12; {
		x, y := asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]
		if grafted%3 == 0 {
			if up := plain.Providers(x); len(up) > 0 && len(plain.Providers(up[0])) > 0 {
				y = plain.Providers(up[0])[0]
			}
		}
		if x == y || b.HasLink(x, y) {
			continue
		}
		if err := b.AddS2S(x, y); err != nil {
			t.Fatal(err)
		}
		grafted++
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasSiblings() {
		t.Fatal("no sibling link grafted")
	}
	return g
}

func TestBuildIndependentOfLinkInsertionOrder(t *testing.T) {
	plain := genTestGraph(t, 2000, 17)
	rng := rand.New(rand.NewSource(5))
	withSiblings := graftSiblings(t, plain, rng)

	for name, want := range map[string]*Graph{"generated": plain, "sibling-grafted": withSiblings} {
		links := want.Links()
		for round := 0; round < 20; round++ {
			rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
			b := NewBuilder()
			for _, a := range want.ASNs() { // registration order is ASNs() order, by contract
				if err := b.AddAS(a); err != nil {
					t.Fatal(err)
				}
			}
			for _, l := range links {
				addLink(t, b, l, rng.Intn(2) == 0)
			}
			got, err := b.Build()
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
			requireSameGraph(t, name+" shuffled", want, got)
		}
		again, err := Rebuild(want).Build()
		if err != nil {
			t.Fatalf("%s: Rebuild+Build: %v", name, err)
		}
		requireSameGraph(t, name+" rebuilt", want, again)
	}
}

// sortedSprintfSerial2 is WriteSerial2 as it was written before Links()
// walked the ASes in ASN order: every link collected off the dense-index
// spans, one sort of the whole list, one Sprintf per line.
func sortedSprintfSerial2(g *Graph) []byte {
	var links []Link
	for i := int32(0); i < int32(g.NumASes()); i++ {
		a := g.ASNAt(i)
		for _, c := range g.CustomersIdx(i) {
			links = append(links, Link{A: a, B: g.ASNAt(c), Rel: ProviderToCustomer})
		}
		for _, p := range g.PeersIdx(i) {
			if a < g.ASNAt(p) {
				links = append(links, Link{A: a, B: g.ASNAt(p), Rel: PeerToPeer})
			}
		}
		for _, s := range g.SiblingsIdx(i) {
			if a < g.ASNAt(s) {
				links = append(links, Link{A: a, B: g.ASNAt(s), Rel: SiblingToSibling})
			}
		}
	}
	slices.SortFunc(links, func(x, y Link) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B), cmp.Compare(x.Rel, y.Rel))
	})
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# %d ASes, %d links\n", g.NumASes(), g.NumLinks())
	for _, l := range links {
		code := "-1"
		switch l.Rel {
		case PeerToPeer:
			code = "0"
		case SiblingToSibling:
			code = "2"
		}
		fmt.Fprintf(&buf, "%d|%d|%s\n", l.A, l.B, code)
	}
	return buf.Bytes()
}

// TestWriteSerial2MatchesSortedSprintf: the writer streams Links() in the
// order the spans give it, formatting with strconv; its bytes must be the
// sort-then-Sprintf writer's, on a generated graph and a sibling-grafted
// copy.
func TestWriteSerial2MatchesSortedSprintf(t *testing.T) {
	plain, err := Generate(DefaultGenConfig(4000))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{
		"generated":       plain,
		"sibling-grafted": graftSiblings(t, plain, rand.New(rand.NewSource(9))),
	} {
		var got bytes.Buffer
		if err := WriteSerial2(&got, g); err != nil {
			t.Fatal(err)
		}
		if want := sortedSprintfSerial2(g); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: WriteSerial2 wrote %d bytes unlike the sorted Sprintf writer's %d", name, got.Len(), len(want))
		}
	}
}

// TestBuilderAddContracts: an Add refuses only what its own call shows (a
// self link, ASN 0). Repeats are no-ops, either way round for symmetric
// links; a second relationship on a pair, or the opposite p2c direction,
// fails Build, which names the earliest such link by insertion index.
func TestBuilderAddContracts(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	base := func() *Builder { // six Adds, three links
		b := NewBuilder()
		must(b.AddP2C(1, 2))
		must(b.AddP2C(1, 2))
		must(b.AddP2P(2, 3))
		must(b.AddP2P(3, 2))
		must(b.AddS2S(4, 1))
		must(b.AddS2S(1, 4))
		return b
	}
	b := base()
	for what, err := range map[string]error{
		"self link":       b.AddP2P(5, 5),
		"reserved ASN":    b.AddP2C(0, 1),
		"reserved ASN as": b.AddAS(0),
	} {
		if err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	if !b.HasLink(2, 1) || !b.HasLink(1, 4) || b.HasLink(1, 3) || b.HasLink(1, 99) {
		t.Error("HasLink wrong")
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLinks() != 3 || g.NumASes() != 4 {
		t.Errorf("%d links over %d ASes, want 3 over 4 (repeats and refused links add nothing)", g.NumLinks(), g.NumASes())
	}

	for _, tc := range []struct {
		what string
		add  func(b *Builder) error
		want string
	}{
		{"reversed p2c", func(b *Builder) error { return b.AddP2C(2, 1) }, "AS2-AS1"},
		{"p2p over p2c", func(b *Builder) error { return b.AddP2P(1, 2) }, "AS1-AS2"},
		{"p2c over p2p", func(b *Builder) error { return b.AddP2C(3, 2) }, "AS3-AS2"},
		{"s2s over p2p", func(b *Builder) error { return b.AddS2S(2, 3) }, "AS2-AS3"},
		{"p2c over s2s", func(b *Builder) error { return b.AddP2C(4, 1) }, "AS4-AS1"},
	} {
		b := base()
		if err := tc.add(b); err != nil {
			t.Errorf("%s: Add failed (%v), want Build to", tc.what, err)
		}
		must(b.AddP2C(1, 2)) // a later repeat of a good link changes nothing
		_, err := b.Build()
		var conflict *conflictError
		if !errors.As(err, &conflict) || conflict.link != 6 ||
			err.Error() != "topology: conflicting relationship for "+tc.want {
			t.Errorf("%s: Build = %v, want a conflict at link 6 for %s", tc.what, err, tc.want)
		}
	}

	// Two conflicts: the one added first is named, though its pair's lower
	// endpoint registered later.
	b = base()
	must(b.AddP2C(3, 2))
	must(b.AddP2C(2, 1))
	var conflict *conflictError
	if _, err := b.Build(); !errors.As(err, &conflict) || conflict.link != 6 || !strings.Contains(err.Error(), "AS3-AS2") {
		t.Errorf("two conflicts: Build = %v, want the first added (link 6, AS3-AS2)", err)
	}
}

// TestReadSerial2InPlaceParsing: the loader parses fields in the scanner's
// buffer; what it accepts and how it names a bad line must not have moved.
func TestReadSerial2InPlaceParsing(t *testing.T) {
	g, err := ReadSerial2(strings.NewReader(
		"# header comment\r\n\r\n  7018|3356|0  \r\n\t3356 | 33652 |-1\n   # indented comment\nAS7018|AS33652| -1 |bgp\n\n174|3356|2"))
	if err != nil {
		t.Fatalf("comments, blank lines, padding, CRLF, AS prefixes and a source field: %v", err)
	}
	want := []Link{
		{A: 174, B: 3356, Rel: SiblingToSibling},
		{A: 3356, B: 7018, Rel: PeerToPeer},
		{A: 3356, B: 33652, Rel: ProviderToCustomer},
		{A: 7018, B: 33652, Rel: ProviderToCustomer},
	}
	if !slices.Equal(g.Links(), want) {
		t.Errorf("links %v, want %v", g.Links(), want)
	}
	if !slices.Equal(g.ASNs(), []bgp.ASN{7018, 3356, 33652, 174}) {
		t.Errorf("ASNs() = %v, want first-appearance order", g.ASNs())
	}

	for in, wantErr := range map[string]string{
		"1|2|-1\n# c\n2|1|-1\n":      "line 3: topology: conflicting relationship for AS2-AS1",
		"1|2|-1\n\n1|2|0\n":          "line 3: topology: conflicting relationship for AS1-AS2",
		"1|2|-1\n3|4|7\n":            `line 2: unknown relationship code "7"`,
		"1|2|-1\n3|4| x \n":          `line 2: unknown relationship code " x"`,
		"1|2|-1\n3|4|\n":             `line 2: unknown relationship code ""`,
		"\n1|x2|-1\n":                `line 2: parse ASN "x2"`,
		"1|2|-1\n|2|-1\n":            `line 2: parse ASN ""`,
		"4294967296|2|-1\n":          `line 1: parse ASN "4294967296"`,
		"99999999999999999999|2|0\n": `line 1: parse ASN "99999999999999999999"`,
		"1|0|-1\n":                   "line 1: parse ASN: 0 is reserved",
		"1|00|-1\n":                  "line 1: parse ASN: 0 is reserved",
		"1|2|-1\n\n7|8\n":            `line 3: want a|b|rel, got "7|8"`,
		"5|5|0\n":                    "line 1: topology: self link AS5",
	} {
		_, err := ReadSerial2(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("ReadSerial2(%q): %v, want an error containing %q", in, err, wantErr)
		}
	}
	if g, err := ReadSerial2(strings.NewReader("4294967295|007|-1\n")); err != nil || !g.Has(4294967295) || !g.Has(7) {
		t.Errorf("largest ASN and leading zeros: %v", err)
	}
}

// TestReadSerial2HeaderIsAHint: the "# N ASes, M links" comment presizes
// the Builder only as far as the input's size bears it out, and what is
// parsed never depends on it.
func TestReadSerial2HeaderIsAHint(t *testing.T) {
	const body = "1|2|-1\n2|3|-1\n1|4|0\n"
	plain, err := ReadSerial2(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for _, header := range []string{
		"# 4 ASes, 3 links", // true
		"# 4000000000000 ASes, 9000000000000000000 links", // absurd
		"# 99999999999999999999 ASes, 1 links",            // overflows an int
		"# 0 ASes, 0 links",                               // zero
		"# -4 ASes, -3 links",                             // negative
		"# 4 ASes",                                        // malformed
		"#4 ASes, 3 links and a tail",                     // malformed
	} {
		in := header + "\n" + body
		if b := sizedBuilder([]byte(header), int64(len(in))); cap(b.links) > len(in)/minLinkLine || cap(b.asns) > 2*cap(b.links) {
			t.Errorf("%q over %d bytes presizes %d links, %d ASes", header, len(in), cap(b.links), cap(b.asns))
		}
		g, err := ReadSerial2(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%q: %v", header, err)
		}
		if !slices.Equal(g.Links(), plain.Links()) || !slices.Equal(g.ASNs(), plain.ASNs()) {
			t.Errorf("%q changed the parsed graph", header)
		}
	}
	if b := sizedBuilder([]byte("# 80000 ASes, 289297 links"), 4637302); cap(b.links) != 289297 || cap(b.asns) != 80000 {
		t.Errorf("internet80k's own header presizes %d links, %d ASes", cap(b.links), cap(b.asns))
	}
	// A reader that cannot say how much it holds justifies nothing.
	if n := inputSize(io.MultiReader(strings.NewReader(body))); n != 0 {
		t.Errorf("inputSize of an opaque reader = %d, want 0", n)
	}
}
