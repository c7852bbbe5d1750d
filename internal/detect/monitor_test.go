package detect

// Tests for the streaming detector's storage: interned routes, rows of
// route ids keyed by pointer-free prefix keys, the lazy route-table sweep
// and the footprint MemoryBytes reports.

import (
	"net/netip"
	"runtime"
	"slices"
	"sort"
	"testing"

	"aspp/internal/bgp"
)

// growthTemplate picks, from a churn corpus, the routes four monitors held
// for a prefix just before an update alarmed against them, the way
// asppserve's growth workload does: inserts are those four announcements
// (the alarming monitor and every witness among them), attack is the
// alarming update. Stamped on fresh prefixes, they make an insert-only
// stream that raises the same alarms on every attacked prefix.
func growthTemplate(t testing.TB, updates []bgp.Update, monitors []bgp.ASN, rels RelQuerier) (inserts []bgp.Update, attack bgp.Update) {
	t.Helper()
	ref := NewDetector(monitors, rels)
	for _, u := range updates {
		var held []bgp.Update
		for _, m := range ref.monASN {
			if p := ref.RouteOf(u.Prefix, m); p != nil {
				held = append(held, bgp.Update{Monitor: m, Type: bgp.Announce, Path: p})
			}
		}
		alarms := ref.Observe(u)
		need := map[bgp.ASN]bool{u.Monitor: true}
		for _, a := range alarms {
			need[a.Witness] = true
		}
		if len(alarms) == 0 || len(held) < 4 || len(need) > 4 {
			continue
		}
		sort.SliceStable(held, func(i, j int) bool { return need[held[i].Monitor] && !need[held[j].Monitor] })
		return held[:4], u
	}
	t.Fatal("no alarm in the corpus fits a four-route template")
	return nil, bgp.Update{}
}

// growthUpdates appends the growth stream's updates for prefixes [from,
// to): the template's inserts on each fresh /32, then the attack on every
// 64th.
func growthUpdates(dst, inserts []bgp.Update, attack bgp.Update, from, to int) []bgp.Update {
	for q := from; q < to; q++ {
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{11, byte(q >> 16), byte(q >> 8), byte(q)}), 32)
		for _, u := range inserts {
			u.Prefix = pfx
			dst = append(dst, u)
		}
		if q%64 == 63 {
			attack.Prefix = pfx
			dst = append(dst, attack)
		}
	}
	return dst
}

func heapAfterGC() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestDetectorMemoryBytesTracksHeap holds MemoryBytes, which /metrics'
// serve_memory_bytes and bench's state_mb read, to the heap the detector
// really holds (±20 %), and caps what a growing table costs: 200k prefixes
// of the growth template (four inserts each, ten monitors) may grow the
// heap by at most 32 B a prefix. A shared row's id plus its key word and
// index slots measures ≈24 B here, and ≈34 B with a 17-byte key; a row of
// route ids per prefix measured ≈76 B, and a span per monitor and a path
// body per (prefix, monitor) ≈325 B, of which MemoryBytes reported 0.74×.
func TestDetectorMemoryBytesTracksHeap(t *testing.T) {
	const prefixes, ceiling = 200_000, 32
	updates, monitors, g := churnCorpus(t, 1500, 23, 10, 300, 1000)
	inserts, attack := growthTemplate(t, updates, monitors, g)
	batch := make([]bgp.Update, 0, 5*256)
	alarms := make([]Alarm, 0, 64)
	raised := 0

	before := heapAfterGC()
	d := NewDetector(monitors, g)
	for q := 0; q < prefixes; q += 256 {
		batch = growthUpdates(batch[:0], inserts, attack, q, min(q+256, prefixes))
		alarms = d.ObserveBatch(batch, alarms[:0])
		raised += len(alarms)
	}
	grown := heapAfterGC() - before
	reported := d.MemoryBytes()
	runtime.KeepAlive(d)

	perPrefix := float64(grown) / prefixes
	t.Logf("%d prefixes, %d alarms: heap grew %d B (%.1f B/prefix), MemoryBytes %d (%.2f× heap)",
		prefixes, raised, grown, perPrefix, reported, float64(reported)/float64(grown))
	if raised == 0 {
		t.Fatal("premise broken: the growth stream raised no alarm")
	}
	if perPrefix > ceiling {
		t.Errorf("heap grew %.1f B per growth prefix, ceiling %d B: prefixes of one template no longer share a row", perPrefix, ceiling)
	}
	if r := float64(reported) / float64(grown); r < 0.8 || r > 1.2 {
		t.Errorf("MemoryBytes = %d B, %.2f× the %d B the heap grew by: want within ±20 %%", reported, r, grown)
	}
}

// TestDetectorRouteTableReclaims cycles one key through 10k distinct paths,
// then withdraws it. All of them share one transit segment and runs of
// equal keys, so the same-key chains are walked too. The sweep reuses
// freed ids, so the route table stays a few slots long, MemoryBytes stops
// rising once the first sweeps have sized it, and after the withdrawal
// nothing is live and nothing is held.
func TestDetectorRouteTableReclaims(t *testing.T) {
	pfx := netip.MustParsePrefix("10.0.0.0/24")
	d := NewDetector([]bgp.ASN{100, 200}, nil)
	var firstHalf, secondHalf int64
	for i := 0; i < 10_000; i++ {
		// i ↦ (x, y) is one-to-one; the body is 1 x+1 times, then 2 y+1 times.
		x, y := i%100, (i/100+i)%100
		p := make(bgp.Path, 0, x+y+3)
		for k := 0; k <= x+y+1; k++ {
			p = append(p, bgp.ASN(1+min(k/(x+1), 1)))
		}
		p = append(p, 7)
		d.Observe(bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: pfx, Path: p})
		if got := d.RouteOf(pfx, 100); !got.Equal(p) {
			t.Fatalf("path %d: RouteOf %v, want %v", i, got, p)
		}
		if mem := d.MemoryBytes(); i < 5_000 {
			firstHalf = max(firstHalf, mem)
		} else {
			secondHalf = max(secondHalf, mem)
		}
	}
	if len(d.spans) > 8 {
		t.Errorf("one key's 10k paths grew the route table to %d slots: freed ids are not reused", len(d.spans))
	}
	if secondHalf > firstHalf {
		t.Errorf("MemoryBytes still rising: at most %d B over the first 5k paths, %d B over the next", firstHalf, secondHalf)
	}
	d.Observe(bgp.Update{Monitor: 100, Type: bgp.Withdraw, Prefix: pfx})
	if held := heldIDs(&d.routeIdx); d.live != 0 || d.arena.Size() != 0 || len(held) != 0 || len(d.free) != len(d.spans)-1 {
		t.Errorf("after the withdrawal: live %d, arena %d elements, %d ids in the route index, %d of %d ids free",
			d.live, d.arena.Size(), len(held), len(d.free), len(d.spans)-1)
	}
	if got := d.RouteOf(pfx, 100); got != nil {
		t.Errorf("withdrawn key still routes %v", got)
	}
}

// TestDetectorRouteTableChains: routes that share a segment, origin, body
// length and prepend count differ only in their bodies' intermediate
// prepends, and stay distinct through a sweep. The sweep frees one of
// them, and routes with its body and other prepend counts take its id and
// another freed one; re-announcing the freed route stores it anew, and
// every RouteOf stays right.
func TestDetectorRouteTableChains(t *testing.T) {
	pfx := netip.MustParsePrefix("10.0.0.0/24")
	d := NewDetector([]bgp.ASN{100, 200, 300, 400}, nil)
	announce := func(m bgp.ASN, p bgp.Path) {
		d.Observe(bgp.Update{Monitor: m, Type: bgp.Announce, Prefix: pfx, Path: p})
	}
	tail, head, long := bgp.Path{1, 1, 2, 7}, bgp.Path{1, 2, 2, 7}, make(bgp.Path, 0, 101)
	for k := 0; k < 100; k++ {
		long = append(long, bgp.ASN(100+k))
	}
	long = append(long, 7)
	announce(100, tail)
	announce(200, head)
	ts, hs := d.spans[d.route(tail)], d.spans[d.route(head)]
	if d.route(tail) == d.route(head) || ts.Seg != hs.Seg || ts.Len != hs.Len || ts.Prep != hs.Prep || ts.Origin != hs.Origin {
		t.Fatalf("premise broken: %v and %v are not two routes of one key: %+v, %+v", tail, head, ts, hs)
	}
	announce(300, long)
	d.Observe(bgp.Update{Monitor: 100, Type: bgp.Withdraw, Prefix: pfx})
	d.Observe(bgp.Update{Monitor: 300, Type: bgp.Withdraw, Prefix: pfx}) // outweighs the rest: sweep
	if len(d.free) != 2 {
		t.Fatalf("premise broken: the sweep freed %d ids, want the tail's and the long route's", len(d.free))
	}
	freed, slots := slices.Clone(d.free), len(d.spans)
	// The tail's body with other prepend counts takes both freed ids.
	other2, other3 := bgp.Path{1, 1, 2, 7, 7}, bgp.Path{1, 1, 2, 7, 7, 7}
	announce(300, other2)
	announce(400, other3)
	announce(100, tail)
	if id2, id3 := d.route(other2), d.route(other3); !slices.Contains(freed, id2) || !slices.Contains(freed, id3) || id2 == id3 {
		t.Errorf("the tail's body with 2 and 3 origin copies took ids %d and %d, want the freed %v", id2, id3, freed)
	}
	if id := d.route(tail); id != int32(slots) || len(d.spans) != slots+1 || id == d.route(head) {
		t.Errorf("the re-announced tail holds id %d of %d, want a new id %d", id, len(d.spans), slots)
	}
	for m, want := range map[bgp.ASN]bgp.Path{100: tail, 200: head, 300: other2, 400: other3} {
		if got := d.RouteOf(pfx, m); !got.Equal(want) {
			t.Errorf("RouteOf(%v) = %v, want %v", m, got, want)
		}
	}
}

// TestDetectorRouteTableReclaimsSegments announces 200k paths on one key,
// each with a transit chain of its own, as a feed of poisoned paths does.
// The sweep drops the segments of the routes it frees, so MemoryBytes stops
// rising once the first sweeps have sized the table: no higher over the
// last 150k paths than over the first 50k.
func TestDetectorRouteTableReclaimsSegments(t *testing.T) {
	pfx := netip.MustParsePrefix("10.0.0.0/24")
	d := NewDetector([]bgp.ASN{100}, nil)
	var first, rest int64
	for i := 0; i < 200_000; i++ {
		p := bgp.Path{bgp.ASN(1_000_000 + i), bgp.ASN(2_000_000 + i), 7}
		d.Observe(bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: pfx, Path: p})
		if i%1000 != 999 {
			continue
		}
		if mem := d.MemoryBytes(); i < 50_000 {
			first = max(first, mem)
		} else {
			rest = max(rest, mem)
		}
	}
	_, _, routes := d.Sizes()
	t.Logf("MemoryBytes at most %d B over the first 50k paths, %d B over the next 150k; %d routes, %d arena elements",
		first, rest, routes, d.arena.Size())
	if rest > first {
		t.Errorf("MemoryBytes still rising with distinct transit chains: at most %d B over the first 50k paths, %d B over the next 150k", first, rest)
	}
}

// TestDetectorRouteTableProbes stores 10k routes [x, x^c], one per prefix,
// in fresh detectors, so fresh seeds, and bounds the probes a route lookup
// pays. Were the origin XORed into the seed that hashes the body, x and
// x^c would cancel and every route would share one hash: one probe run of
// all 10k routes, whatever the seed. The ceilings are
// TestDetectorPrefixIndexProbes' ones, at a lower load.
func TestDetectorRouteTableProbes(t *testing.T) {
	const routes, c, maxMean, maxLongest = 10_000, 0x5bd1e995, 2.75, 512
	for seed := 0; seed < 3; seed++ {
		d := NewDetector([]bgp.ASN{100}, nil)
		for x := 1; x <= routes; x++ {
			pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{11, 0, byte(x >> 8), byte(x)}), 32)
			d.Observe(bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: pfx, Path: bgp.Path{bgp.ASN(x), bgp.ASN(x ^ c)}})
		}
		if _, _, n := d.Sizes(); n != routes || len(d.spans) != routes+1 {
			t.Fatalf("premise broken: %d routes in %d ids, want %d", n, len(d.spans)-1, routes)
		}
		mean, longest := probeStats(&d.routeIdx, 1, routes+1, d.routeHashOf)
		t.Logf("detector %d: mean %.2f probes, longest %d", seed, mean, longest)
		if mean > maxMean || longest > maxLongest {
			t.Errorf("detector %d: mean %.2f probes (ceiling %.2f), longest %d (ceiling %d)", seed, mean, maxMean, longest, maxLongest)
		}
	}
}

// longPrepend is a path whose origin run, 65,536 copies, overflows 16 bits.
func longPrepend() bgp.Path {
	long := make(bgp.Path, 2+1<<16)
	for i := range long {
		long[i] = 7
	}
	long[0], long[1] = 5, 6
	return long
}

// TestDetectorRouteTableLongPrepend: a route ending in 65,536 origin copies
// is stored once, with its whole run. The public Observe takes paths of any
// length; a 16-bit run count would store 0, no route, so RouteOf would read
// nil and every announcement of the path would store it again.
func TestDetectorRouteTableLongPrepend(t *testing.T) {
	pfx, long := netip.MustParsePrefix("10.0.0.0/24"), longPrepend()
	d := NewDetector([]bgp.ASN{100}, nil)
	for range 2 {
		d.Observe(bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: pfx, Path: long})
	}
	if _, _, routes := d.Sizes(); routes != 1 {
		t.Errorf("announcing the path twice stores %d routes, want 1", routes)
	}
	if got := d.RouteOf(pfx, 100); !got.Equal(long) {
		t.Errorf("RouteOf reads %d ASNs, want the %d-ASN path", len(got), len(long))
	}
}

// TestDetectorRouteTableSweepKeepsLongRuns: sweeps that free the routes
// around a live route of 65,536 origin copies keep its body and its
// segment. The sweep tells a freed id by the empty span's Seg, not by Prep.
func TestDetectorRouteTableSweepKeepsLongRuns(t *testing.T) {
	held, churn := netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.0.1.0/24")
	d := NewDetector([]bgp.ASN{100}, nil)
	long := longPrepend()
	d.Observe(bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: held, Path: long})
	if d.spans[1].Prep != 1<<16 || d.refs[1] != 1 {
		t.Fatalf("premise broken: route 1 is %+v with %d references", d.spans[1], d.refs[1])
	}
	for i := 0; i < 10_000; i++ {
		d.Observe(bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: churn, Path: bgp.Path{bgp.ASN(1_000 + i), 8}})
	}
	if len(d.free) == 0 {
		t.Fatal("premise broken: no sweep ran")
	}
	if s := d.spans[1]; !slices.Equal(d.arena.Body(s), long[:2]) || !slices.Equal(d.arena.SegBody(s.Seg), long[:2]) || s.Prep != 1<<16 {
		t.Errorf("after the sweeps route 1 reads body %v, segment %v, %d copies, want %v and %d", d.arena.Body(s), d.arena.SegBody(s.Seg), s.Prep, long[:2], 1<<16)
	}
}

// TestDetectorRouteTablePrefixKeys: a v4 prefix and its IPv4-mapped v6
// twin (/8 and /104) share As16, and /8 and /9 share an address; each is
// a key and, holding a route of its own, a row of its own beside the empty
// row, and RouteOf reads each its own route.
func TestDetectorRouteTablePrefixKeys(t *testing.T) {
	v4 := netip.MustParsePrefix("10.0.0.0/8")
	pfxs := []netip.Prefix{v4, netip.PrefixFrom(netip.AddrFrom16(v4.Addr().As16()), 8+96), netip.MustParsePrefix("10.0.0.0/9")}
	d := NewDetector([]bgp.ASN{100, 200}, nil)
	for i, pfx := range pfxs {
		d.Observe(bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: pfx, Path: bgp.Path{bgp.ASN(10 + i), 7}})
	}
	if prefixes, rows, _ := d.Sizes(); prefixes != len(pfxs) || rows != 1+len(pfxs) {
		t.Fatalf("%d prefixes share %d keys and %d rows", len(pfxs), prefixes, rows)
	}
	for i, pfx := range pfxs {
		if got, want := d.RouteOf(pfx, 100), (bgp.Path{bgp.ASN(10 + i), 7}); !got.Equal(want) {
			t.Errorf("RouteOf(%v) = %v, want %v", pfx, got, want)
		}
		if got := d.RouteOf(pfx, 200); got != nil {
			t.Errorf("RouteOf(%v, 200) = %v, want none", pfx, got)
		}
	}
}

// TestDetectorRouteTableReviveZeroAlloc pins the lazy sweep: a route whose
// count dropped to 0 stays in the table, and re-announcing it revives it
// without allocating.
func TestDetectorRouteTableReviveZeroAlloc(t *testing.T) {
	pfx := netip.MustParsePrefix("10.0.0.0/24")
	d := NewDetector([]bgp.ASN{100, 200}, nil)
	pathA, pathB := bgp.Path{1, 2, 7, 7}, bgp.Path{1, 3, 7}
	upA := bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: pfx, Path: pathA}
	upB := bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: pfx, Path: pathB}
	d.Observe(bgp.Update{Monitor: 200, Type: bgp.Announce, Prefix: pfx, Path: bgp.Path{5, 6, 8}})
	d.Observe(upA)
	d.Observe(upB)
	idA, slots := d.route(pathA), len(d.spans)
	if d.refs[idA] != 0 {
		t.Fatalf("premise broken: route %v holds %d references", pathA, d.refs[idA])
	}
	if avg := testing.AllocsPerRun(50, func() {
		alarmSink = d.Observe(upA) // revives A, drops B to 0
		alarmSink = d.Observe(upB) // revives B, drops A to 0
	}); avg != 0 {
		t.Errorf("reviving a zero-reference route allocates %.1f objects per run, want 0", avg)
	}
	if d.route(pathA) != idA || d.refs[idA] != 0 || len(d.spans) != slots {
		t.Errorf("route %v moved or the table grew: id %d → %d, %d → %d slots", pathA, idA, d.route(pathA), slots, len(d.spans))
	}
}

// TestDetectorMasksPrefixes: an update for 10.0.0.1/8 is one for
// 10.0.0.0/8. It lands on the masked prefix's row, so a monitor that drops
// two of the origin's three copies there raises the removed-prepend alarm
// against the witness that still holds them, and both forms go to one
// shard.
func TestDetectorMasksPrefixes(t *testing.T) {
	masked, unmasked := netip.MustParsePrefix("10.0.0.0/8"), netip.MustParsePrefix("10.0.0.1/8")
	d := NewDetector([]bgp.ASN{100, 200}, nil)
	d.Observe(bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: masked, Path: bgp.Path{1, 2, 7, 7, 7}})
	d.Observe(bgp.Update{Monitor: 200, Type: bgp.Announce, Prefix: masked, Path: bgp.Path{3, 2, 7, 7, 7}})
	got := d.Observe(bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: unmasked, Path: bgp.Path{1, 2, 7}})
	want := []Alarm{{Confidence: High, Suspect: 1, Monitor: 100, Witness: 200, RemovedPads: 2}}
	if !slices.Equal(got, want) {
		t.Errorf("announcing on %v after %v: alarms %+v, want %+v", unmasked, masked, got, want)
	}
	if prefixes, _, _ := d.Sizes(); prefixes != 1 {
		t.Errorf("%v and %v hold %d prefixes, want 1", masked, unmasked, prefixes)
	}
	if got := d.RouteOf(masked, 100); !got.Equal(bgp.Path{1, 2, 7}) {
		t.Errorf("RouteOf(%v, 100) = %v, want the route announced on %v", masked, got, unmasked)
	}
	for n := 2; n <= 64; n++ {
		if a, b := PrefixShard(masked, n), PrefixShard(unmasked, n); a != b {
			t.Fatalf("PrefixShard over %d shards: %v → %d, %v → %d", n, masked, a, unmasked, b)
		}
	}
}

// TestDetectorRouteTableSteadyChurn replays the churn corpus ten times after
// one warm cycle, in the serve worker's 256-update batches. Every route a
// cycle drops comes back in the next, and weighed against the live routes,
// rows and prefixes the dead ones never call a sweep: the arena neither
// shrinks (a sweep) nor grows (a route stored again) after the warm cycle.
func TestDetectorRouteTableSteadyChurn(t *testing.T) {
	updates, monitors, g := churnCorpus(t, 1500, 23, 40, 300, 5000)
	d := NewDetector(monitors, g)
	replay := func() (sweeps, stores int) {
		for i := 0; i < len(updates); i += 256 {
			before := d.arena.Size()
			d.ObserveBatch(updates[i:min(i+256, len(updates))], nil)
			if after := d.arena.Size(); after < before {
				sweeps++
			} else if after > before {
				stores++
			}
		}
		return sweeps, stores
	}
	replay()
	sweeps, stores := 0, 0
	for cycle := 0; cycle < 10; cycle++ {
		s, m := replay()
		sweeps, stores = sweeps+s, stores+m
	}
	_, rows, routes := d.Sizes()
	t.Logf("%d updates a cycle, %d rows, %d routes: %d batches swept and %d stored routes over ten warm cycles",
		len(updates), rows, routes, sweeps, stores)
	if sweeps != 0 || stores != 0 {
		t.Errorf("steady churn swept in %d batches and stored routes again in %d, want neither", sweeps, stores)
	}
}
