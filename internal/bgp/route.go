package bgp

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// UpdateType distinguishes BGP announcement from withdrawal messages.
type UpdateType uint8

const (
	// Announce advertises a (possibly replacement) route for a prefix.
	Announce UpdateType = iota + 1
	// Withdraw removes reachability for a prefix.
	Withdraw
)

// String returns "A" for Announce and "W" for Withdraw.
func (t UpdateType) String() string {
	switch t {
	case Announce:
		return "A"
	case Withdraw:
		return "W"
	default:
		return fmt.Sprintf("UpdateType(%d)", uint8(t))
	}
}

// Update is one routing change observed at a monitor, in the style of the
// per-peer update logs collected by RouteViews and RIPE RIS.
type Update struct {
	// Time is a logical timestamp (simulation event counter).
	Time uint64
	// Monitor is the vantage-point AS that observed the change.
	Monitor ASN
	// Type says whether the route was announced or withdrawn.
	Type UpdateType
	// Prefix is the affected destination block.
	Prefix netip.Prefix
	// Path is the new best AS path; empty for withdrawals.
	Path Path
}

// Validate checks internal consistency of the update.
func (u Update) Validate() error {
	if u.Monitor == 0 {
		return errors.New("update: zero monitor ASN")
	}
	if !u.Prefix.IsValid() {
		return errors.New("update: invalid prefix")
	}
	switch u.Type {
	case Announce:
		if len(u.Path) == 0 {
			return errors.New("update: announce with empty path")
		}
	case Withdraw:
		if len(u.Path) != 0 {
			return errors.New("update: withdraw carries a path")
		}
	default:
		return fmt.Errorf("update: bad type %d", u.Type)
	}
	return nil
}

// String renders the update as a pipe-separated log line, e.g.
// "A|12|AS7018|69.171.224.0/20|4134 9318 32934 32934 32934".
func (u Update) String() string {
	var sb strings.Builder
	sb.WriteString(u.Type.String())
	sb.WriteByte('|')
	fmt.Fprintf(&sb, "%d", u.Time)
	sb.WriteByte('|')
	sb.WriteString(u.Monitor.String())
	sb.WriteByte('|')
	sb.WriteString(u.Prefix.String())
	if u.Type == Announce {
		sb.WriteByte('|')
		sb.WriteString(u.Path.String())
	}
	return sb.String()
}
