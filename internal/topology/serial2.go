package topology

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"

	"aspp/internal/bgp"
)

// This file reads and writes AS-relationship files in the CAIDA "serial-2"
// line format used by essentially all public relationship datasets:
//
//	# comments
//	<provider-as>|<customer-as>|-1
//	<peer-as>|<peer-as>|0
//
// so real inferred topologies can be dropped in for the generated ones.

var sep = []byte{'|'}

// asnField parses one AS-number field. The bare decimal every dataset
// writes is read in place; anything else — an "AS" prefix, inner padding,
// a malformed number to report — goes through bgp.ParseASN.
func asnField(f []byte) (bgp.ASN, error) {
	var n uint64
	for _, ch := range f {
		if ch < '0' || ch > '9' || n > math.MaxUint32 {
			return bgp.ParseASN(string(f))
		}
		n = n*10 + uint64(ch-'0')
	}
	if n == 0 || n > math.MaxUint32 {
		return bgp.ParseASN(string(f))
	}
	return bgp.ASN(n), nil
}

// ReadSerial2 parses a relationship file into a Graph. Lines are parsed
// in place from the scanner's buffer: at Internet scale the file is a few
// hundred thousand lines, and a string plus a field slice for each were
// all but 3,000 of the load's 790,000 allocations.
func ReadSerial2(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		fa, rest, _ := bytes.Cut(line, sep)
		fc, rest, ok := bytes.Cut(rest, sep)
		if !ok {
			return nil, fmt.Errorf("topology: line %d: want a|b|rel, got %q", lineno, line)
		}
		code, _, _ := bytes.Cut(rest, sep) // a fourth field (the source) is ignored
		a, err := asnField(fa)
		if err != nil {
			return nil, fmt.Errorf("topology: line %d: %w", lineno, err)
		}
		c, err := asnField(fc)
		if err != nil {
			return nil, fmt.Errorf("topology: line %d: %w", lineno, err)
		}
		switch string(bytes.TrimSpace(code)) {
		case "-1":
			err = b.AddP2C(a, c)
		case "0":
			err = b.AddP2P(a, c)
		case "2":
			err = b.AddS2S(a, c)
		default:
			err = fmt.Errorf("unknown relationship code %q", code)
		}
		if err != nil {
			return nil, fmt.Errorf("topology: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: read: %w", err)
	}
	return b.Build()
}

// WriteSerial2 writes g in serial-2 format, deterministically sorted.
func WriteSerial2(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# %d ASes, %d links\n", g.NumASes(), g.NumLinks()); err != nil {
		return err
	}
	for _, l := range g.Links() {
		if _, err := fmt.Fprintln(bw, l.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}
