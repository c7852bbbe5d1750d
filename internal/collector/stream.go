package collector

import (
	"errors"
	"net/netip"
	"slices"

	"aspp/internal/bgp"
	"aspp/internal/routing"
)

// StreamTransition builds the update stream the monitors would emit when
// routing shifts from the "before" to the "after" result for one prefix:
// an announcement for every changed best route, a withdrawal for every
// lost one. A nil before is no route anywhere, so the stream announces
// after's table: a steady state. Times start at startTime and increase per
// update; updates are ordered by monitor for determinism.
func StreamTransition(before, after *routing.Result, prefix netip.Prefix, monitors []bgp.ASN, startTime uint64) ([]bgp.Update, error) {
	if !prefix.IsValid() {
		return nil, errors.New("collector: invalid prefix")
	}
	sorted := slices.Clone(monitors)
	slices.Sort(sorted)
	idx := make([]int32, len(sorted))
	for i, m := range sorted {
		j, ok := after.Graph().Index(m)
		if !ok {
			j = -1
		}
		idx[i] = j
	}
	a := routing.NewPathArena()
	from := make([]routing.PathSpan, len(idx))
	if before != nil {
		from = before.PathsInto(a, idx, from[:0])
	}
	out := transition(a, sorted, from, after.PathsInto(a, idx, nil), nil)
	for i := range out {
		out[i].Prefix, out[i].Time = prefix, startTime+uint64(i)+1
	}
	return out, nil
}

// transition appends to out what each monitor emits when its route goes
// from from[k] to to[k] (spans of the one arena a, so equal transit chains
// share a Seg): an announcement of a changed route, a withdrawal of a lost
// one. Prefix and Time are the caller's to stamp.
func transition(a *routing.PathArena, monitors []bgp.ASN, from, to []routing.PathSpan, out []bgp.Update) []bgp.Update {
	for k, m := range monitors {
		old, cur := from[k], to[k]
		switch {
		case cur.Prep == 0 && old.Prep == 0:
		case cur.Prep == 0:
			out = append(out, bgp.Update{Monitor: m, Type: bgp.Withdraw})
		case old.Prep == cur.Prep && old.Seg == cur.Seg && old.Origin == cur.Origin:
		default:
			out = append(out, bgp.Update{Monitor: m, Type: bgp.Announce, Path: a.Path(cur)})
		}
	}
	return out
}
