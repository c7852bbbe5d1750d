package bgp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
)

// The text codec: one pipe-separated line per record, human-greppable and
// diff-friendly, mirroring the "show ip bgp"-style exports that BGP
// measurement work commonly post-processes. The binary codec is in
// stream.go. Both round-trip exactly and are covered by property tests.

// ErrBadRecord is wrapped by decode errors caused by malformed input.
var ErrBadRecord = errors.New("bgp: bad record")

// WriteUpdateText appends the one-line text encoding of u to w.
func WriteUpdateText(w io.Writer, u Update) error {
	if err := u.Validate(); err != nil {
		return err
	}
	_, err := io.WriteString(w, u.String()+"\n")
	return err
}

// ParseUpdateText parses one line as produced by Update.String.
func ParseUpdateText(line string) (Update, error) {
	fields := strings.Split(strings.TrimSpace(line), "|")
	if len(fields) < 4 {
		return Update{}, fmt.Errorf("%w: want >=4 fields, got %d", ErrBadRecord, len(fields))
	}
	var u Update
	switch fields[0] {
	case "A":
		u.Type = Announce
	case "W":
		u.Type = Withdraw
	default:
		return Update{}, fmt.Errorf("%w: bad type %q", ErrBadRecord, fields[0])
	}
	t, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return Update{}, fmt.Errorf("%w: time: %v", ErrBadRecord, err)
	}
	u.Time = t
	mon, err := ParseASN(fields[2])
	if err != nil {
		return Update{}, fmt.Errorf("%w: monitor: %v", ErrBadRecord, err)
	}
	u.Monitor = mon
	pfx, err := netip.ParsePrefix(fields[3])
	if err != nil {
		return Update{}, fmt.Errorf("%w: prefix: %v", ErrBadRecord, err)
	}
	// Host bits go, as in StreamDecoder: one update keys the same detector
	// row and shard whichever codec carried it.
	u.Prefix = pfx.Masked()
	if u.Type == Announce {
		if len(fields) != 5 {
			return Update{}, fmt.Errorf("%w: announce wants 5 fields", ErrBadRecord)
		}
		p, err := ParsePath(fields[4])
		if err != nil {
			return Update{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		u.Path = p
	} else if len(fields) != 4 {
		return Update{}, fmt.Errorf("%w: withdraw wants 4 fields", ErrBadRecord)
	}
	if err := u.Validate(); err != nil {
		return Update{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	return u, nil
}

// ReadUpdatesText parses a stream of text-encoded updates, skipping blank
// lines and '#' comments.
func ReadUpdatesText(r io.Reader) ([]Update, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []Update
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		u, err := ParseUpdateText(line)
		if err != nil {
			return out, fmt.Errorf("line %d: %w", lineno, err)
		}
		out = append(out, u)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("read updates: %w", err)
	}
	return out, nil
}
