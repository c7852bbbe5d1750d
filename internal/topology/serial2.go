package topology

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"

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

// minLinkLine is the shortest line that adds a link: "1|2|0\n".
const minLinkLine = 6

// inputSize returns the bytes r holds when it can say without reading — an
// in-memory reader, a regular file — and 0 otherwise.
func inputSize(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return 0
}

// sizedBuilder returns a Builder presized from the "# N ASes, M links"
// comment WriteSerial2 leads with. The comment is a hint, trusted only as
// far as size input bytes could bear it out — a link takes a line and
// brings at most two ASes — so a header that lies allocates no more than
// parsing that much input could have; anything else gets an empty Builder.
func sizedBuilder(header []byte, size int64) *Builder {
	var n, m int
	if c, _ := fmt.Sscanf(string(header), "# %d ASes, %d links", &n, &m); c != 2 {
		return NewBuilder()
	}
	m = max(min(m, int(size/minLinkLine)), 0)
	return newBuilderSized(max(min(n, 2*m), 0), m)
}

// ReadSerial2 parses a relationship file into a Graph. Lines are parsed
// in place from the scanner's buffer: at Internet scale the file is a few
// hundred thousand lines, and a string plus a field slice for each were
// all but 3,000 of the load's 790,000 allocations. The first line that
// fails to parse, names a self link or ASN 0 is the error; failing that,
// the earliest line that contradicts an earlier one (Build finds it, and
// the line number kept for each link names it).
func ReadSerial2(r io.Reader) (*Graph, error) {
	size := inputSize(r)
	b := NewBuilder()
	var lines []int32 // line number of each link, by insertion index
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			if lineno == 1 {
				b = sizedBuilder(line, size)
				lines = make([]int32, 0, cap(b.links))
			}
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
		lines = append(lines, int32(lineno))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: read: %w", err)
	}
	g, err := b.Build()
	var conflict *conflictError
	if errors.As(err, &conflict) {
		return nil, fmt.Errorf("topology: line %d: %w", lines[conflict.link], err)
	}
	return g, err
}

// Open is how the commands take their topology: the serial-2 file at path,
// or — path empty — what Generate draws from cfg.
func Open(path string, cfg GenConfig) (*Graph, error) {
	if path == "" {
		return Generate(cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSerial2(f)
}

// WriteSerial2 writes g in serial-2 format, one line per link sorted by A,
// then B (walkLinks), each formatted straight into the writer's buffer.
func WriteSerial2(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# %d ASes, %d links\n", g.NumASes(), g.NumLinks()); err != nil {
		return err
	}
	g.walkLinks(g.asnOrder(), func(l Link) {
		// A failed write sticks to bw: later writes are dropped and Flush
		// returns the error.
		_, _ = bw.Write(append(l.appendSerial2(bw.AvailableBuffer()), '\n'))
	})
	return bw.Flush()
}
