package detect

// Tests for the streaming detector's row table: prefixes whose rows are
// equal hold one row, held against a model that keeps a plain row per
// prefix, and what the table costs and allocates (DESIGN §5c).

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/routing"
)

// plainRows is the model: a row of route ids per masked prefix, none
// shared, over a route table that only grows, run through the same Fig. 4
// rule, detectRow.
type plainRows struct {
	mons   []bgp.ASN
	monIdx map[bgp.ASN]int
	rels   RelQuerier
	arena  *routing.PathArena
	spans  []routing.PathSpan
	ids    map[string]int32
	rows   map[netip.Prefix][]int32
}

func newPlainRows(monitors []bgp.ASN, rels RelQuerier) *plainRows {
	mons := slices.Clone(monitors)
	slices.Sort(mons)
	mons = slices.Compact(mons)
	p := &plainRows{mons: mons, monIdx: map[bgp.ASN]int{}, rels: rels, arena: routing.NewPathArena(),
		spans: []routing.PathSpan{{Seg: -1}}, ids: map[string]int32{}, rows: map[netip.Prefix][]int32{}}
	for i, m := range mons {
		p.monIdx[m] = i
	}
	return p
}

func (p *plainRows) observe(u bgp.Update, dst []Alarm) []Alarm {
	mi, ok := p.monIdx[u.Monitor]
	if u.Validate() != nil || !ok {
		return dst
	}
	row := p.rows[u.Prefix.Masked()]
	if row == nil {
		row = make([]int32, len(p.mons))
		p.rows[u.Prefix.Masked()] = row
	}
	prev, id := row[mi], int32(0)
	if u.Type == bgp.Announce {
		key := fmt.Sprint(u.Path)
		if id, ok = p.ids[key]; !ok {
			id = int32(len(p.spans))
			p.spans = append(p.spans, p.arena.Store(u.Path))
			p.ids[key] = id
		}
	}
	row[mi] = id
	if id == 0 {
		return dst
	}
	return rowAlarms(p.arena, p.mons, row, p.spans, mi, p.spans[prev], p.rels, dst)
}

func (p *plainRows) routeOf(pfx netip.Prefix, monitor bgp.ASN) bgp.Path {
	mi, ok := p.monIdx[monitor]
	if row := p.rows[pfx.Masked()]; ok && row != nil {
		return p.arena.Path(p.spans[row[mi]])
	}
	return nil
}

// checkRowTable holds d's row table to its invariants: no two live rows are
// equal, each live row's hash is the sum of its shares and the row index
// finds it under that hash, the index holds no other id, each row's count
// is the prefixes that hold it (the empty row's plus its own), so the
// counts sum to the prefixes plus one, the free list holds exactly the
// other rows, and each route's count is the live row slots that hold it.
func checkRowTable(t *testing.T, d *Detector, when string) {
	t.Helper()
	m := len(d.monASN)
	held := make([]int32, len(d.rowRefs))
	held[0] = 1
	for _, r := range d.rowIDs {
		held[r]++
	}
	slots := make([]int32, len(d.spans))
	seen := map[string]int{}
	sum := 0
	for r, c := range d.rowRefs {
		if c != held[r] {
			t.Fatalf("%s: row %d counts %d prefixes, %d hold it", when, r, c, held[r])
		}
		if c == 0 {
			continue
		}
		sum += int(c)
		row := d.rows[r*m : r*m+m]
		key := fmt.Sprint(row)
		if o, dup := seen[key]; dup {
			t.Fatalf("%s: live rows %d and %d are equal: %v", when, o, r, row)
		}
		seen[key] = r
		var h uint64
		for k, id := range row {
			h += d.mix(k, id)
			slots[id]++
		}
		found := d.rowIdx.Find(h, func(c int32) bool { return c == int32(r) }) == int32(r)
		if h != d.rowHash[r] || !found {
			t.Fatalf("%s: row %d hashes to %#x, stored %#x, found in the row index: %v", when, r, h, d.rowHash[r], found)
		}
	}
	if n := len(heldIDs(&d.rowIdx)); n != len(seen) {
		t.Fatalf("%s: the row index holds %d ids, %d rows are live", when, n, len(seen))
	}
	if sum != len(d.keys)+1 {
		t.Fatalf("%s: row counts sum to %d, want %d prefixes plus the empty row's own", when, sum, len(d.keys))
	}
	if len(seen)+len(d.rowFree) != len(d.rowRefs) {
		t.Fatalf("%s: %d live rows and %d free of %d", when, len(seen), len(d.rowFree), len(d.rowRefs))
	}
	for id := 1; id < len(d.spans); id++ {
		if d.refs[id] != slots[id] {
			t.Fatalf("%s: route %d counts %d, %d live row slots hold it", when, id, d.refs[id], slots[id])
		}
	}
}

// rowStreams returns the differential's three streams over monitors: the
// churn corpus; the growth template on 4,096 fresh prefixes; and a random
// withdraw/re-announce stream over 48 prefixes, each sent now masked, now
// not, in which a prefix's monitors move one at a time between three target
// rows, and whole prefixes are withdrawn and come back, so prefixes
// converge on shared rows, leave them and free them. The targets are two
// rows the corpus held at its end and the first with one more origin copy
// on every route, so a monitor moving off the padded row onto the first
// triggers the rule.
func rowStreams(churn, inserts []bgp.Update, attack bgp.Update, monitors []bgp.ASN, rels RelQuerier) []namedStream {
	ref := NewDetector(monitors, rels)
	ref.ObserveBatch(churn, nil)
	var targets [][]bgp.Path
	for i := len(churn) - 1; i >= 0 && len(targets) < 2; i-- {
		pfx := churn[i].Prefix
		row := make([]bgp.Path, len(monitors))
		for k, m := range monitors {
			row[k] = ref.RouteOf(pfx, m)
		}
		if !slices.ContainsFunc(targets, func(r []bgp.Path) bool { return slices.EqualFunc(r, row, bgp.Path.Equal) }) {
			targets = append(targets, row)
		}
	}
	padded := make([]bgp.Path, len(monitors))
	for k, p := range targets[0] {
		if p != nil {
			padded[k] = append(p.Clone(), p[len(p)-1])
		}
	}
	targets = append(targets[:min(len(targets), 2)], padded)
	rng := rand.New(rand.NewSource(44))
	var random []bgp.Update
	for len(random) < 20_000 {
		q := rng.Intn(48)
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, byte(q), byte(rng.Intn(2) * 9)}), 24)
		target := targets[rng.Intn(len(targets))]
		whole := rng.Intn(8) == 0
		for k := range monitors {
			if !whole && rng.Intn(3) > 0 {
				continue
			}
			u := bgp.Update{Monitor: monitors[k], Type: bgp.Withdraw, Prefix: pfx}
			if target[k] != nil && !whole {
				u.Type, u.Path = bgp.Announce, target[k]
			}
			random = append(random, u)
		}
	}
	return []namedStream{{"churn", churn}, {"growth", growthUpdates(nil, inserts, attack, 0, 4096)}, {"random", random}}
}

type namedStream struct {
	name    string
	updates []bgp.Update
}

// TestRowInterningDifferential replays the churn corpus, the growth
// template and a random withdraw/re-announce stream, at 1, 10 and 40
// monitors, through the detector in random-sized ObserveBatch chunks and
// through plainRows update by update. Each chunk raises the same alarms in
// the same order, the row table holds its invariants after every chunk,
// and RouteOf agrees for every (prefix, monitor) sent every 16 chunks and
// at the end.
func TestRowInterningDifferential(t *testing.T) {
	churn, all, g := churnCorpus(t, 1500, 23, 40, 300, 5000)
	inserts, attack := growthTemplate(t, churn, all[:10], g)
	for _, m := range []int{1, 10, 40} {
		monitors := all[:m]
		if m == 1 {
			monitors = []bgp.ASN{attack.Monitor} // the growth template's
		}
		for _, s := range rowStreams(churn, inserts, attack, monitors, g) {
			name, updates := s.name, s.updates
			d, model := NewDetector(monitors, g), newPlainRows(monitors, g)
			rng := rand.New(rand.NewSource(int64(m)))
			var sent []netip.Prefix
			seen := map[netip.Prefix]bool{}
			var got, want []Alarm
			alarms, freed, maxRows := 0, 0, 0
			sameRoutes := func(when string) {
				for _, pfx := range sent {
					for _, mon := range monitors {
						if a, b := d.RouteOf(pfx, mon), model.routeOf(pfx, mon); !a.Equal(b) {
							t.Fatalf("%s: RouteOf(%v, %v) = %v, model %v", when, pfx, mon, a, b)
						}
					}
				}
			}
			for i, chunk := 0, 0; i < len(updates); chunk++ {
				j := min(len(updates), i+1+rng.Intn(300))
				got = d.ObserveBatch(updates[i:j], got[:0])
				want = want[:0]
				for _, u := range updates[i:j] {
					want = model.observe(u, want)
					if !seen[u.Prefix] {
						seen[u.Prefix] = true
						sent = append(sent, u.Prefix)
					}
				}
				when := fmt.Sprintf("m=%d %s, updates [%d, %d)", m, name, i, j)
				if !slices.Equal(got, want) {
					t.Fatalf("%s:\ninterned %+v\nplain    %+v", when, got, want)
				}
				checkRowTable(t, d, when)
				if chunk%16 == 15 {
					sameRoutes(when)
				}
				_, rows, _ := d.Sizes()
				alarms, freed, maxRows, i = alarms+len(got), max(freed, len(d.rowFree)), max(maxRows, rows), j
			}
			sameRoutes(fmt.Sprintf("m=%d %s, at the end", m, name))
			prefixes, rows, routes := d.Sizes()
			t.Logf("m=%d %s: %d updates, %d alarms, %d prefixes on %d rows (at most %d, up to %d free), %d routes",
				m, name, len(updates), alarms, prefixes, rows, maxRows, freed, routes)
			if name == "growth" && rows > 8 {
				t.Errorf("m=%d growth: %d prefixes of one template hold %d rows", m, prefixes, rows)
			}
			if name == "random" && m > 1 && freed == 0 {
				t.Errorf("m=%d random: premise broken: no row was ever freed", m)
			}
		}
	}
}

// TestDetectorSharedRowFlapZeroAlloc pins a prefix whose row flaps between
// two rows other prefixes hold: it moves between them by reference count
// and allocates nothing, and no row is made or freed.
func TestDetectorSharedRowFlapZeroAlloc(t *testing.T) {
	d := NewDetector([]bgp.ASN{100, 200}, nil)
	pathA, pathB := bgp.Path{1, 2, 7, 7}, bgp.Path{1, 3, 7}
	pfx := func(q byte) netip.Prefix { return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, q, 0}), 24) }
	for q := byte(1); q <= 3; q++ {
		d.Observe(bgp.Update{Monitor: 200, Type: bgp.Announce, Prefix: pfx(q), Path: bgp.Path{5, 6, 7}})
	}
	up := func(q byte, p bgp.Path) bgp.Update {
		return bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: pfx(q), Path: p}
	}
	d.Observe(up(1, pathA))
	d.Observe(up(2, pathB))
	d.Observe(up(3, pathA))
	upA, upB := up(3, pathA), up(3, pathB)
	_, rows, _ := d.Sizes()
	free := len(d.rowFree)
	if avg := testing.AllocsPerRun(50, func() {
		alarmSink = d.Observe(upB) // onto prefix 2's row
		alarmSink = d.Observe(upA) // back onto prefix 1's
	}); avg != 0 {
		t.Errorf("a prefix flapping between two shared rows allocates %.1f objects per run, want 0", avg)
	}
	if _, after, _ := d.Sizes(); after != rows || rows != 3 || len(d.rowFree) != free {
		t.Errorf("the flap moved the row table: %d live rows and %d free, then %d and %d; want 3 (empty, A, B) throughout",
			rows, free, after, len(d.rowFree))
	}
	checkRowTable(t, d, "after the flap")
}

// TestDetectorThousandMonitorsCost runs the growth template on 100k fresh
// prefixes at 1,000 monitors, Sermpezis et al.'s largest monitor count: the
// heap may grow by at most 32 B a prefix. A row of 4-byte route ids per
// prefix costs ≈4 KB here; a shared row costs each prefix its row id, and
// the prefix its key word and index slots, ≈24 B in all (≈35 B with a
// 17-byte key).
func TestDetectorThousandMonitorsCost(t *testing.T) {
	const prefixes, ceiling = 100_000, 32
	updates, monitors, g := churnCorpus(t, 1500, 23, 10, 300, 1000)
	inserts, attack := growthTemplate(t, updates, monitors, g)
	wide := g.TopByDegree(1000)
	for _, u := range inserts {
		if !slices.Contains(wide, u.Monitor) {
			t.Fatalf("premise broken: template monitor %v is not among the 1,000", u.Monitor)
		}
	}
	batch := make([]bgp.Update, 0, 5*256)
	alarms := make([]Alarm, 0, 64)
	raised := 0

	before := heapAfterGC()
	d := NewDetector(wide, g)
	for q := 0; q < prefixes; q += 256 {
		batch = growthUpdates(batch[:0], inserts, attack, q, min(q+256, prefixes))
		alarms = d.ObserveBatch(batch, alarms[:0])
		raised += len(alarms)
	}
	grown := heapAfterGC() - before
	reported := d.MemoryBytes()
	runtime.KeepAlive(d)

	_, rows, _ := d.Sizes()
	perPrefix := float64(grown) / prefixes
	t.Logf("%d prefixes at %d monitors, %d alarms, %d rows: heap grew %.1f B/prefix, MemoryBytes %.1f B/prefix",
		prefixes, len(wide), raised, rows, perPrefix, float64(reported)/prefixes)
	if raised == 0 {
		t.Fatal("premise broken: the growth stream raised no alarm")
	}
	if perPrefix > ceiling {
		t.Errorf("heap grew %.1f B per growth prefix at %d monitors, ceiling %d B: prefixes no longer share rows", perPrefix, len(wide), ceiling)
	}
}
