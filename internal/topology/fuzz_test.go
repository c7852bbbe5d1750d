package topology

import (
	"bytes"
	"testing"
)

// FuzzSerial2 hammers the serial-2 relationship-file loader with arbitrary
// bytes. Properties:
//
//   - ReadSerial2 never panics: it either returns a Graph or an error.
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
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadSerial2(bytes.NewReader(data))
		if err != nil {
			return // rejected input only needs to not panic
		}
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
