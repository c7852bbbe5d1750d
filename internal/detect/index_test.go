package detect

// Tests for the streaming detector's prefix index: the key words beside the
// rows, the overflow slab of IPv6 keys and the seeded open-addressing
// table that finds a prefix's row (DESIGN §5c).

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/probe"
)

// TestPrefixIndexDifferential drives a detector and a map keyed by
// netip.Prefix with one random stream through at least four doublings of
// the index. The stream mixes IPv4 prefixes, their IPv4-mapped IPv6 twins
// (at bits+96 the same As16; at the same bits a short IPv6 prefix once
// masked), plain IPv6 prefixes, every
// length from /0 to /128, unmasked addresses (which name their masked
// prefix, as the model's keys do), repeats and same-prefix runs, and
// updates from a non-monitor, which take no row. After every doubling
// and at the end both sides agree on the row count and on RouteOf for
// every (prefix, monitor), and prefixes never sent have no route.
func TestPrefixIndexDifferential(t *testing.T) {
	monitors := []bgp.ASN{100, 200, 300}
	rng := rand.New(rand.NewSource(41))
	d := NewDetector(monitors, nil)
	model := map[netip.Prefix]map[bgp.ASN]bgp.Path{}
	var seen []netip.Prefix

	randAddr := func(v4 bool) netip.Addr {
		var a [16]byte
		rng.Read(a[:])
		if v4 {
			return netip.AddrFrom4([4]byte(a[:4]))
		}
		return netip.AddrFrom16(a)
	}
	draw := func() netip.Prefix {
		switch k := rng.Intn(10); {
		case k < 4 && len(seen) > 0: // a repeat
			return seen[rng.Intn(len(seen))]
		case k < 6: // IPv4, masked or not
			p := netip.PrefixFrom(randAddr(true), rng.Intn(33))
			if rng.Intn(2) == 0 {
				p = p.Masked()
			}
			return p
		case k < 8 && len(seen) > 0: // the IPv4-mapped twin of a prefix seen, same bits or +96
			p := seen[rng.Intn(len(seen))]
			return netip.PrefixFrom(netip.AddrFrom16(p.Addr().As16()), min(p.Bits()+96*rng.Intn(2), 128))
		default: // plain IPv6
			return netip.PrefixFrom(randAddr(false), rng.Intn(129))
		}
	}
	agree := func(when string) {
		t.Helper()
		if len(d.keys) != len(model) || len(d.rowIDs) != len(model) {
			t.Fatalf("%s: %d keys and %d row ids, model has %d prefixes", when, len(d.keys), len(d.rowIDs), len(model))
		}
		for _, p := range seen {
			for _, m := range monitors {
				if got, want := d.RouteOf(p, m), model[p.Masked()][m]; !got.Equal(want) {
					t.Fatalf("%s: RouteOf(%v, %v) = %v, model %v", when, p, m, got, want)
				}
			}
			if got := d.RouteOf(p, 999); got != nil {
				t.Fatalf("%s: RouteOf(%v) for a non-monitor = %v", when, p, got)
			}
		}
		for i := 0; i < 100; i++ {
			if p := draw(); model[p.Masked()] == nil && d.RouteOf(p, monitors[0]) != nil {
				t.Fatalf("%s: unsent prefix %v has a route", when, p)
			}
		}
	}

	doublings := 0
	for i := 0; i < 30_000; i++ {
		p := draw()
		for run := 1 + rng.Intn(3); run > 0; run-- {
			u := bgp.Update{Monitor: monitors[rng.Intn(len(monitors))], Type: bgp.Withdraw, Prefix: p}
			if rng.Intn(20) == 0 {
				u.Monitor = 999
			}
			if rng.Intn(3) > 0 {
				u.Type, u.Path = bgp.Announce, bgp.Path{bgp.ASN(1 + rng.Intn(5)), bgp.ASN(10 + rng.Intn(3)), 7}
			}
			size := d.index.MemoryBytes()
			d.Observe(u)
			if u.Monitor == 999 {
				continue
			}
			if model[p.Masked()] == nil {
				model[p.Masked()] = map[bgp.ASN]bgp.Path{}
			}
			if !slices.Contains(seen, p) {
				seen = append(seen, p)
			}
			if u.Type == bgp.Announce {
				model[p.Masked()][u.Monitor] = u.Path
			} else {
				delete(model[p.Masked()], u.Monitor)
			}
			if d.index.MemoryBytes() != size {
				doublings++
				agree("after a doubling")
			}
		}
	}
	agree("at the end")
	if doublings < 4 {
		t.Fatalf("premise broken: the index doubled %d times, want at least 4", doublings)
	}
	t.Logf("%d prefixes, %d doublings, %d index slots", len(model), doublings, d.index.MemoryBytes()/4)
}

// probeStats looks ids from..to-1 up in x under hash: an id's probe count
// is the ids its lookup inspects, one plus its distance from its home slot.
func probeStats(x *probe.Index, from, to int32, hash func(int32) uint64) (mean float64, longest int) {
	total := 0
	for id := from; id < to; id++ {
		k := 0
		if x.Find(hash(id), func(c int32) bool { k++; return c == id }) != id {
			panic("an id is not in the index")
		}
		total, longest = total+k, max(longest, k)
	}
	return float64(total) / float64(to-from), longest
}

// heldIDs lists the ids x holds, slot by slot: probing from a slot's own
// position, Find offers the id there, if any, first.
func heldIDs(x *probe.Index) []int32 {
	var ids []int32
	for h := uint64(0); h < uint64(x.MemoryBytes()/4); h++ {
		if id := x.Find(h, func(int32) bool { return true }); id >= 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestDetectorPrefixIndexProbes fills fresh detectors, so fresh seeds, with
// dense and hostile-shaped prefix runs up to the largest load the index
// reaches, ¾ of 65,536 slots, and bounds the probes a lookup pays. The
// shapes: the growth workload's consecutive /32s, the churn corpus's
// consecutive /24s, one IPv6 block's consecutive /56s, and /24s each
// followed by its IPv4-mapped twin, the /120 of the same As16 (a mapped /24
// would mask to ::/24). A random hash at load ¾ averages 2.5 probes
// (½(1 + 1/(1−α)), Knuth) and its longest probe run over 1,000 such tables
// was 299. A mix that drops an address word shows here as one run of all
// 49,152 keys; one that drops the bits byte, as means of 4.4 to 4.7 probes
// on the twins.
func TestDetectorPrefixIndexProbes(t *testing.T) {
	const keys, maxMean, maxLongest = 3 << 14, 2.75, 512
	shapes := []struct {
		name string
		nth  func(q int) netip.Prefix
	}{
		{"growth /32s", func(q int) netip.Prefix {
			return netip.PrefixFrom(netip.AddrFrom4([4]byte{11, byte(q >> 16), byte(q >> 8), byte(q)}), 32)
		}},
		{"collector /24s", func(q int) netip.Prefix {
			return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(1 + q>>16), byte(q >> 8), byte(q), 0}), 24)
		}},
		{"IPv6 /56s", func(q int) netip.Prefix {
			return netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(q >> 16), byte(q >> 8), byte(q)}), 56)
		}},
		{"IPv4/mapped twins", func(q int) netip.Prefix {
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(q >> 9), byte(q >> 1), 0}), 24)
			if q%2 == 1 {
				p = netip.PrefixFrom(netip.AddrFrom16(p.Addr().As16()), 24+96)
			}
			return p
		}},
	}
	for _, s := range shapes {
		for seed := 0; seed < 3; seed++ {
			d := NewDetector([]bgp.ASN{100}, nil)
			for q := 0; q < keys; q++ {
				d.Observe(bgp.Update{Monitor: 100, Type: bgp.Withdraw, Prefix: s.nth(q)})
			}
			if slots := int(d.index.MemoryBytes() / 4); len(d.keys) != keys || 4*len(d.keys) != 3*slots {
				t.Fatalf("%s: premise broken: %d keys in %d slots, want %d at load ¾", s.name, len(d.keys), slots, keys)
			}
			mean, longest := probeStats(&d.index, 0, int32(len(d.keys)), d.keyHash)
			t.Logf("%s, detector %d: mean %.2f probes, longest %d", s.name, seed, mean, longest)
			if mean > maxMean || longest > maxLongest {
				t.Errorf("%s, detector %d: mean %.2f probes (ceiling %.2f), longest %d (ceiling %d)",
					s.name, seed, mean, maxMean, longest, maxLongest)
			}
		}
	}
}

// TestDetectorPrefixKeyTwinsHashApart: the /128s with address words (a, b)
// and (b^c, a^c) hash apart on fresh detectors. A hash that multiplies
// a^seed by b^seed^c gives both the same product under every seed, so a feed
// could pick colliding pairs whatever the seed.
func TestDetectorPrefixKeyTwinsHashApart(t *testing.T) {
	const c = 0xa0761d6478bd642f
	key := func(w0, w1 uint64) pfxKey {
		var k pfxKey
		binary.LittleEndian.PutUint64(k.addr[:8], w0)
		binary.LittleEndian.PutUint64(k.addr[8:], w1)
		k.bits = 128
		return k
	}
	rng := rand.New(rand.NewSource(47))
	for seed := 0; seed < 3; seed++ {
		d := NewDetector([]bgp.ASN{100}, nil)
		for range 100 {
			a, b := rng.Uint64(), rng.Uint64()
			k, twin := key(a, b), key(b^c, a^c)
			if d.hash(&k) == d.hash(&twin) {
				t.Fatalf("detector %d: %x and its twin %x hash alike", seed, k.addr, twin.addr)
			}
		}
	}
}

// TestDetectorPrefixIndexCost pins what the index costs a prefix at every
// size from 1k to 300k prefixes, independent of the Go version's map
// layout: the key slabs at capacity plus the probe table, at most 22 B. The
// 8-byte key word grows by a quarter at a time (≤ 10 B) and the table holds
// 4/3 to 8/3 slots of 4 B per key (≤ 10.7 B). A 17-byte key cost up to
// 31.8 B here.
func TestDetectorPrefixIndexCost(t *testing.T) {
	const ceiling = 22
	d := NewDetector([]bgp.ASN{100}, nil)
	worst, at := 0.0, 0
	for q := 0; q < 300_000; q++ {
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{11, byte(q >> 16), byte(q >> 8), byte(q)}), 32)
		d.Observe(bgp.Update{Monitor: 100, Type: bgp.Withdraw, Prefix: pfx})
		if n := len(d.keys); n >= 1000 {
			if c := float64(sliceBytes(d.keys)+sliceBytes(d.over)+d.index.MemoryBytes()) / float64(n); c > worst {
				worst, at = c, n
			}
		}
	}
	t.Logf("the index costs at most %.1f B per prefix, at %d prefixes", worst, at)
	if worst > ceiling {
		t.Errorf("the index costs %.1f B per prefix at %d prefixes, ceiling %d B", worst, at, ceiling)
	}
}

// keyModel is the map model the key tests hold a detector to: each masked
// prefix's slot, in first-sight order, and the route monitor 100 last
// announced for it.
type keyModel struct {
	slot  map[netip.Prefix]int32
	route map[netip.Prefix]bgp.Path
	over  int
	sent  []netip.Prefix
}

// observe announces p from monitor 100 to d and to the model. An invalid
// prefix is dropped by both.
func (m *keyModel) observe(d *Detector, p netip.Prefix) {
	path := bgp.Path{bgp.ASN(10 + len(m.sent)%7), 7}
	d.Observe(bgp.Update{Monitor: 100, Type: bgp.Announce, Prefix: p, Path: path})
	if !p.IsValid() {
		return
	}
	k := p.Masked()
	if _, ok := m.slot[k]; !ok {
		m.slot[k] = int32(len(m.slot))
		if !k.Addr().Is4() {
			m.over++
		}
	}
	m.route[k] = path
	m.sent = append(m.sent, p)
}

// check holds d to the model slot for slot: each masked prefix finds its
// slot, whose word names an overflow key exactly for IPv6 (and then the
// prefix's 17-byte key) and hashes as the lookup did; every
// prefix sent, masked or not, reads back its route; and each one's
// neighbours one bit longer or shorter and its IPv4/::ffff: twin are found
// only if the model holds them.
func (m *keyModel) check(t testing.TB, d *Detector, when string) {
	t.Helper()
	if len(d.keys) != len(m.slot) || len(d.over) != m.over {
		t.Fatalf("%s: %d key words and %d overflow keys, model %d and %d", when, len(d.keys), len(d.over), len(m.slot), m.over)
	}
	for k, slot := range m.slot {
		w, _, h, r := d.lookup(k)
		if r != slot {
			t.Fatalf("%s: %v found at slot %d, model %d", when, k, r, slot)
		}
		i, over := overIdx(d.keys[r])
		if over != !k.Addr().Is4() || !over && d.keys[r] != w {
			t.Fatalf("%s: %v holds word %#x", when, k, d.keys[r])
		} else if over && d.over[i] != (pfxKey{k.Addr().As16(), uint8(k.Bits())}) {
			t.Fatalf("%s: %v names overflow key %v", when, k, d.over[i])
		}
		if d.keyHash(r) != h {
			t.Fatalf("%s: %v hashes to %#x in the index and %#x on lookup", when, k, d.keyHash(r), h)
		}
	}
	for _, p := range m.sent {
		if got, want := d.RouteOf(p, 100), m.route[p.Masked()]; !got.Equal(want) {
			t.Fatalf("%s: RouteOf(%v) = %v, model %v", when, p, got, want)
		}
		a := p.Addr()
		twin := netip.PrefixFrom(netip.AddrFrom16(a.As16()), p.Bits()+96)
		if !a.Is4() {
			twin = netip.PrefixFrom(a.Unmap(), p.Bits()-96)
		}
		for _, q := range []netip.Prefix{netip.PrefixFrom(a, p.Bits()+1), netip.PrefixFrom(a, p.Bits()-1), twin} {
			_, held := m.slot[q.Masked()]
			if _, _, _, r := d.lookup(q); (r >= 0) != (held && q.IsValid()) {
				t.Fatalf("%s: %v, beside %v, found at slot %d; model holds it: %v", when, q, p, r, held)
			}
		}
	}
}

// TestPrefixKeyClasses feeds one detector every class of prefix key in
// rounds: IPv4 /0–/32 with host bits set (key words), each one's ::ffff:
// twin (/96–/128) and IPv6 /0–/128 with host bits set (overflow keys).
// After every doubling of the prefix index and at the end, the detector
// agrees slot for slot with a map keyed by the masked prefix
// (keyModel.check).
func TestPrefixKeyClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	d := NewDetector([]bgp.ASN{100}, nil)
	m := &keyModel{slot: map[netip.Prefix]int32{}, route: map[netip.Prefix]bgp.Path{}}
	doublings := 0
	for round := 0; round < 40; round++ {
		var a [16]byte
		rng.Read(a[:])
		var ps []netip.Prefix
		for bits := 0; bits <= 32; bits++ {
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte(a[:4])), bits)
			ps = append(ps, p, netip.PrefixFrom(netip.AddrFrom16(p.Addr().As16()), bits+96))
		}
		for bits := 0; bits <= 128; bits++ {
			ps = append(ps, netip.PrefixFrom(netip.AddrFrom16(a), bits))
		}
		for _, p := range ps {
			size := d.index.MemoryBytes()
			m.observe(d, p)
			if d.index.MemoryBytes() != size {
				doublings++
				m.check(t, d, "after a doubling")
			}
		}
	}
	m.check(t, d, "at the end")
	if doublings < 2 || m.over == 0 || m.over == len(m.slot) {
		t.Fatalf("premise broken: %d doublings, %d of %d keys overflow", doublings, m.over, len(m.slot))
	}
	t.Logf("%d prefixes, %d overflow keys, %d doublings", len(m.slot), m.over, doublings)
}

// FuzzPrefixKeys decodes its input as 18-byte records: a family byte (odd
// for IPv6), a 16-byte address (IPv4 takes the first four bytes) and a
// bits byte, which may be past the family's width, making the prefix
// invalid. Every prefix is announced to one detector and to keyModel,
// which must agree slot for slot at the end. The checked-in corpus holds
// /0, /127–/129 and IPv4 prefixes beside their ::ffff: twins.
func FuzzPrefixKeys(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDetector([]bgp.ASN{100}, nil)
		m := &keyModel{slot: map[netip.Prefix]int32{}, route: map[netip.Prefix]bgp.Path{}}
		for ; len(data) >= 18; data = data[18:] {
			a := netip.AddrFrom16([16]byte(data[1:17]))
			if data[0]%2 == 0 {
				a = netip.AddrFrom4([4]byte(data[1:5]))
			}
			m.observe(d, netip.PrefixFrom(a, int(data[17])))
		}
		m.check(t, d, "at the end")
	})
}
