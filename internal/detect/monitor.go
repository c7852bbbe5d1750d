package detect

import (
	"net/netip"
	"sort"

	"aspp/internal/bgp"
	"aspp/internal/routing"
)

// Detector consumes a live BGP update stream from a set of vantage points
// (the deployment mode of the paper's Section V: a prefix owner watching
// RouteViews/RIPE-style feeds with a PHAS-like monitor) and raises alarms
// as inconsistencies appear.
//
// Route state is arena-backed: per prefix, one PathSpan per monitor
// (dense monitor index) into a detector-owned routing.PathArena, instead
// of a map of cloned bgp.Path slices per update. Replacing a route reuses
// its slot when the new body fits; abandoned bodies are tracked and the
// arena compacted once they outweigh the live ones, so the detector's
// footprint stays proportional to its current table.
type Detector struct {
	rels RelQuerier
	// monASN is the sorted vantage-point set; monIdx maps an ASN to its
	// dense position in monASN (and in every per-prefix span row).
	monASN []bgp.ASN
	monIdx map[bgp.ASN]int32

	arena *routing.PathArena
	// routes[prefix] is one span per monitor (dense index); the empty
	// span (Prep == 0) means "no route announced".
	routes map[netip.Prefix][]routing.PathSpan

	// live counts arena body elements referenced by current spans; the
	// rest of the arena (arena.Size() - live) is dead weight left behind
	// by Replace and withdrawals. Compaction triggers when dead outgrows
	// live.
	live int

	liveRefs []*routing.PathSpan // compaction scratch

	// lastPfx/lastSpans memoize the most recent routes-map lookup.
	// Update streams arrive in same-prefix runs (a transition emits every
	// changed monitor's update for one prefix back to back), so the batch
	// path resolves most updates without hashing the prefix again. The
	// cached slice header stays valid forever: a prefix's span row is
	// allocated once and never reassigned.
	lastPfx   netip.Prefix
	lastSpans []routing.PathSpan
}

// NewDetector builds a streaming detector for the given vantage points.
// rels may be nil to disable the relationship-hint rules.
func NewDetector(monitors []bgp.ASN, rels RelQuerier) *Detector {
	idx := make(map[bgp.ASN]int32, len(monitors))
	asns := make([]bgp.ASN, 0, len(monitors))
	for _, asn := range monitors {
		if _, dup := idx[asn]; !dup {
			idx[asn] = 0 // placeholder; assigned after sorting
			asns = append(asns, asn)
		}
	}
	sort.Slice(asns, func(a, b int) bool { return asns[a] < asns[b] })
	for i, asn := range asns {
		idx[asn] = int32(i)
	}
	return &Detector{
		rels:   rels,
		monASN: asns,
		monIdx: idx,
		arena:  routing.NewPathArena(),
		routes: make(map[netip.Prefix][]routing.PathSpan),
	}
}

// Monitors returns the configured vantage points, sorted.
func (d *Detector) Monitors() []bgp.ASN {
	return append([]bgp.ASN(nil), d.monASN...)
}

// Observe processes one update and returns any alarms it triggers.
// Updates from non-monitor ASes are ignored. Warmed steady state — every
// prefix and transit segment seen before, no alarms — runs
// allocation-free.
func (d *Detector) Observe(u bgp.Update) []Alarm {
	alarms := d.observeOne(&u, nil)
	d.maybeCompact()
	return alarms
}

// ObserveBatch processes updates in order, appending any alarms to dst
// and returning the extended slice. The verdicts are exactly those of
// calling Observe per update (the batched-vs-serial differential pins
// this); the batch form amortizes the two per-update overheads that
// dominate warmed Observe:
//
//   - the routes-map lookup, skipped for same-prefix runs via the
//     lastPfx memo (transition streams announce one prefix's changes
//     from every monitor back to back);
//   - the arena compaction check and the compaction itself, run once
//     after the batch instead of after every update. Deferring it is
//     verdict-invariant: Compact moves span bodies but never touches the
//     interned segment table detection compares against, and the extra
//     dead arena weight is bounded by one batch's path bytes.
//
// A warmed batch over known prefixes and segments appends into dst's
// spare capacity and is otherwise allocation-free.
func (d *Detector) ObserveBatch(updates []bgp.Update, dst []Alarm) []Alarm {
	for i := range updates {
		dst = d.observeOne(&updates[i], dst)
	}
	d.maybeCompact()
	return dst
}

// observeOne is the shared per-update core: it stores the route and
// appends any alarms to dst, leaving compaction to the caller.
func (d *Detector) observeOne(u *bgp.Update, dst []Alarm) []Alarm {
	if err := u.Validate(); err != nil {
		return dst
	}
	mi, ok := d.monIdx[u.Monitor]
	if !ok {
		return dst
	}
	var spans []routing.PathSpan
	if d.lastSpans != nil && u.Prefix == d.lastPfx {
		spans = d.lastSpans
	} else {
		spans = d.routes[u.Prefix]
		if spans == nil {
			spans = make([]routing.PathSpan, len(d.monASN))
			for i := range spans {
				spans[i].Seg = -1
			}
			d.routes[u.Prefix] = spans
		}
		d.lastPfx, d.lastSpans = u.Prefix, spans
	}
	prev := spans[mi]
	if u.Type == bgp.Withdraw {
		d.live -= int(prev.Len) // empty spans have Len 0
		spans[mi] = routing.PathSpan{Seg: -1}
		return dst
	}

	// Store the new route, then run the rule over the row. The rule reads
	// transit chains off the interned segment table (stable across body
	// appends) and prev's two scalars, already copied out — so storing
	// before detection is safe, and matches the legacy order.
	cur, _ := d.arena.Replace(prev, u.Path)
	spans[mi] = cur
	d.live += int(cur.Len) - int(prev.Len)
	return detectRow(d.arena, d.monASN, spans, int(mi), prev, d.rels, dst)
}

// maybeCompact rewrites the arena once abandoned bodies outweigh live
// ones, updating every span's offset in place.
func (d *Detector) maybeCompact() {
	dead := d.arena.Size() - d.live
	if dead <= d.live || dead == 0 {
		return
	}
	d.liveRefs = d.liveRefs[:0]
	for _, spans := range d.routes {
		for i := range spans {
			if spans[i].Prep > 0 {
				d.liveRefs = append(d.liveRefs, &spans[i])
			}
		}
	}
	d.arena.Compact(d.liveRefs)
}

// MemoryBytes is the detector's resident footprint: the path arena plus
// the per-prefix span rows (one routing.PathSpan per monitor) and the map
// bookkeeping holding them. The serve pipeline's soak gate samples this
// to assert the streaming table plateaus instead of leaking.
func (d *Detector) MemoryBytes() int64 {
	if d == nil {
		return 0
	}
	const spanBytes = 16    // sizeof(routing.PathSpan)
	const mapEntryOver = 48 // estimated per-entry map overhead (key + headers)
	b := d.arena.MemoryBytes()
	b += int64(len(d.routes)) * (int64(len(d.monASN))*spanBytes + mapEntryOver)
	b += int64(cap(d.monASN))*4 + int64(len(d.monIdx))*16
	b += int64(cap(d.liveRefs)) * 8
	return b
}

// RouteOf returns the detector's current view of monitor's route for a
// prefix (nil if unknown), materialized off the arena.
func (d *Detector) RouteOf(prefix netip.Prefix, monitor bgp.ASN) bgp.Path {
	mi, ok := d.monIdx[monitor]
	if !ok {
		return nil
	}
	spans := d.routes[prefix]
	if spans == nil {
		return nil
	}
	return d.arena.Path(spans[mi])
}
