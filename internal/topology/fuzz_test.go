package topology

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"aspp/internal/bgp"
)

// FuzzSerial2 hammers the serial-2 relationship-file loader with arbitrary
// bytes. Properties:
//
//   - ReadSerial2 never panics: it either returns a Graph or an error.
//   - It agrees with serial2Model, the loading rule stated over maps: the
//     same inputs accepted, with the same Links() and ASNs(), and the same
//     line named on a rejection.
//   - HasLink answers the same before and after its pair set exists.
//   - Accepted input survives a write/read round trip: WriteSerial2 of the
//     parsed graph must re-parse, yielding the identical AS set and link
//     list (the write path is the loader's inverse on its accepted set).
//
// Run longer with:
//
//	go test ./internal/topology/ -run=^$ -fuzz=FuzzSerial2 -fuzztime=30s
func FuzzSerial2(f *testing.F) {
	seeds := []string{
		"",
		"# just a comment\n",
		"1|2|-1\n",
		"10|20|0\n",
		"7018|33652|-1\n7018|3356|0\n3356|33652|-1\n",
		"1|2|2\n",             // sibling link
		"  5|6|-1  \n\n7|6|0", // padding, blank line, no trailing newline
		"1|2|-1\n2|1|-1\n",    // conflicting directions
		"1|1|-1\n",            // self link
		"1|2|7\n",             // unknown relationship code
		"1|2\n",               // too few fields
		"AS1|AS2|-1\n",        // ParseASN accepts the AS prefix
		"0|2|-1\n",            // reserved ASN
		"1|2|-1|extra\n",
		"\xff\xfe garbage",
		"# 2 ASes, 1 links\n1|2|-1\n", // its own writer output
		// The header only presizes: absurd, zero and malformed ones.
		"# 4000000000 ASes, 9000000000000000000 links\n1|2|-1\n",
		"# 0 ASes, 0 links\n1|2|-1\n2|3|0\n",
		"# -1 ASes, -1 links\n1|2|2\n",
		"# 3 ASes, links\n1|2|-1\n",
		// Repeats, named either way round for symmetric links.
		"1|2|0\n2|1|0\n1|2|0\n3|4|2\n4|3|2\n1|3|-1\n1|3|-1\n",
		"1|2|-1\n1|2|-1\n2|1|-1\n",     // a conflict after a repeat
		"1|2|-1\n2|1|0\n3|x|-1\n",      // a conflict, then a bad line: the bad line wins
		"5|6|0\n1|2|-1\n6|5|-1\n1|2|0", // two conflicts: the earlier line wins
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadSerial2(bytes.NewReader(data))
		if len(data) < 1<<20 { // every line fits the scanner, which the model assumes
			checkSerial2Model(t, data, g, err)
		}
		if err != nil {
			return
		}
		checkHasLinkIndex(t, g)
		var buf bytes.Buffer
		if err := WriteSerial2(&buf, g); err != nil {
			t.Fatalf("WriteSerial2 failed on accepted graph: %v", err)
		}
		g2, err := ReadSerial2(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected:\n%s\nerror: %v", buf.Bytes(), err)
		}
		if g2.NumASes() != g.NumASes() || g2.NumLinks() != g.NumLinks() {
			t.Fatalf("round trip changed size: %d ASes/%d links -> %d/%d",
				g.NumASes(), g.NumLinks(), g2.NumASes(), g2.NumLinks())
		}
		l1, l2 := g.Links(), g2.Links()
		for i := range l1 {
			if l1[i] != l2[i] {
				t.Fatalf("round trip changed link %d: %v -> %v", i, l1[i], l2[i])
			}
		}
	})
}

// serial2Model is the loading rule over maps, line by line: the first line
// that fails to parse or names a self link is the error (errLine); failing
// that, the earliest line that contradicts an earlier link on its pair.
// Otherwise the graph holds each pair's first link, and its ASes in order
// of first appearance; it is still rejected, with errLine 0, when it has no
// AS or a provider cycle.
func serial2Model(data []byte) (links []Link, asns []bgp.ASN, errLine int, ok bool) {
	first := map[[2]bgp.ASN]Link{}
	registered := map[bgp.ASN]bool{}
	conflict := 0
	for k, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Split(line, "|")
		if len(fields) < 3 {
			return nil, nil, k + 1, false
		}
		a, errA := bgp.ParseASN(fields[0])
		c, errC := bgp.ParseASN(fields[1])
		rel, known := map[string]Relationship{"-1": ProviderToCustomer, "0": PeerToPeer, "2": SiblingToSibling}[strings.TrimSpace(fields[2])]
		if errA != nil || errC != nil || !known || a == c {
			return nil, nil, k + 1, false
		}
		for _, x := range []bgp.ASN{a, c} {
			if !registered[x] {
				registered[x] = true
				asns = append(asns, x)
			}
		}
		l := Link{A: a, B: c, Rel: rel}
		if rel != ProviderToCustomer && c < a {
			l.A, l.B = c, a
		}
		key := [2]bgp.ASN{min(a, c), max(a, c)}
		if have, seen := first[key]; !seen {
			first[key] = l
		} else if have != l && conflict == 0 {
			conflict = k + 1
		}
	}
	if conflict != 0 {
		return nil, nil, conflict, false
	}
	if len(asns) == 0 {
		return nil, nil, 0, false
	}
	// Peel customer-free ASes off the provider hierarchy; a cycle is what
	// never peels.
	customers, providers := map[bgp.ASN]int{}, map[bgp.ASN][]bgp.ASN{}
	for _, l := range first {
		links = append(links, l)
		if l.Rel == ProviderToCustomer {
			customers[l.A]++
			providers[l.B] = append(providers[l.B], l.A)
		}
	}
	var ready []bgp.ASN
	for _, x := range asns {
		if customers[x] == 0 {
			ready = append(ready, x)
		}
	}
	for peeled := 0; len(ready) > 0; peeled++ {
		x := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for _, p := range providers[x] {
			if customers[p]--; customers[p] == 0 {
				ready = append(ready, p)
			}
		}
		if peeled+1 == len(asns) {
			slices.SortFunc(links, func(x, y Link) int {
				return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
			})
			return links, asns, 0, true
		}
	}
	return nil, nil, 0, false
}

// checkSerial2Model holds ReadSerial2's answer on data to serial2Model's.
func checkSerial2Model(t *testing.T, data []byte, g *Graph, err error) {
	t.Helper()
	links, asns, errLine, ok := serial2Model(data)
	switch {
	case ok && err != nil:
		t.Fatalf("model accepts %q, ReadSerial2: %v", data, err)
	case ok && (!slices.Equal(g.Links(), links) || !slices.Equal(g.ASNs(), asns)):
		t.Fatalf("%q: ReadSerial2 gives links %v, ASNs %v; model %v, %v", data, g.Links(), g.ASNs(), links, asns)
	case !ok && err == nil:
		t.Fatalf("model rejects %q (line %d), ReadSerial2 accepts it", data, errLine)
	case errLine != 0 && !strings.HasPrefix(err.Error(), fmt.Sprintf("topology: line %d: ", errLine)):
		t.Fatalf("%q: ReadSerial2: %v, model names line %d", data, err, errLine)
	case !ok && errLine == 0 && strings.HasPrefix(err.Error(), "topology: line "):
		t.Fatalf("%q: ReadSerial2: %v, model names no line", data, err)
	}
}

// checkHasLinkIndex adds g's links to a Builder in two halves, asking
// HasLink between them so the second half lands in an existing pair set
// (record's upkeep), and compares it over the first ASes' pairs with a
// Builder whose set is built from the whole list, and with g.
func checkHasLinkIndex(t *testing.T, g *Graph) {
	t.Helper()
	links := g.Links()
	split, whole := NewBuilder(), NewBuilder()
	for k, l := range links {
		if k == len(links)/2 && k > 0 {
			split.HasLink(links[0].A, links[0].B) // both registered: the set gets built
		}
		addLink(t, split, l, false)
		addLink(t, whole, l, true)
	}
	asns := g.ASNs()
	asns = asns[:min(len(asns), 24)]
	for _, x := range asns {
		for _, y := range asns {
			want := g.RelOf(x, y) != RelNone
			if split.HasLink(x, y) != want || whole.HasLink(x, y) != want {
				t.Fatalf("HasLink(%v, %v): %v with the set built mid-way, %v from the whole list; want %v",
					x, y, split.HasLink(x, y), whole.HasLink(x, y), want)
			}
		}
	}
}
