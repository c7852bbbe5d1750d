package collector

import (
	"errors"
	"net/netip"
	"sort"

	"aspp/internal/bgp"
	"aspp/internal/routing"
)

// TableEntry is one row of a vantage point's routing-table snapshot.
type TableEntry struct {
	Monitor bgp.ASN
	Route   bgp.Route
}

// Snapshot extracts monitor-table entries for one prefix from a routing
// result, sorted by monitor.
func Snapshot(res *routing.Result, prefix netip.Prefix, monitors []bgp.ASN) []TableEntry {
	out := make([]TableEntry, 0, len(monitors))
	for _, m := range monitors {
		if p := res.PathOf(m); p != nil {
			out = append(out, TableEntry{
				Monitor: m,
				Route:   bgp.Route{Prefix: prefix, Path: p},
			})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Monitor < out[b].Monitor })
	return out
}

// StreamTransition builds the update stream the monitors would emit when
// routing shifts from the "before" to the "after" result for one prefix:
// an announcement for every changed best route, a withdrawal for every
// lost one. Times start at startTime and increase per update; updates are
// ordered by monitor for determinism.
func StreamTransition(before, after *routing.Result, prefix netip.Prefix, monitors []bgp.ASN, startTime uint64) ([]bgp.Update, error) {
	if !prefix.IsValid() {
		return nil, errors.New("collector: invalid prefix")
	}
	sorted := append([]bgp.ASN(nil), monitors...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	var out []bgp.Update
	tm := startTime
	for _, m := range sorted {
		oldPath := before.PathOf(m)
		newPath := after.PathOf(m)
		switch {
		case newPath == nil && oldPath == nil:
			continue
		case newPath == nil:
			tm++
			out = append(out, bgp.Update{
				Time: tm, Monitor: m, Type: bgp.Withdraw, Prefix: prefix,
			})
		case oldPath.Equal(newPath):
			continue
		default:
			tm++
			out = append(out, bgp.Update{
				Time: tm, Monitor: m, Type: bgp.Announce, Prefix: prefix, Path: newPath,
			})
		}
	}
	return out, nil
}
