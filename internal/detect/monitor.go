package detect

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"net/netip"
	"slices"
	"sort"
	"unsafe"

	"aspp/internal/bgp"
	"aspp/internal/routing"
)

// Detector consumes a live BGP update stream from a set of vantage points
// (the deployment mode of the paper's Section V: a prefix owner watching
// RouteViews/RIPE-style feeds with a PHAS-like monitor) and raises alarms
// as inconsistencies appear.
//
// Routes are interned: each distinct (body, Prep, Origin) is stored once in
// a detector-owned routing.PathArena and named by a route id, and a prefix
// is one row of ids, one per monitor (dense monitor index). Most prefixes
// of one origin reach a monitor over the same path, so a full table costs a
// row of 4-byte ids per prefix, not a path per (prefix, monitor).
type Detector struct {
	rels RelQuerier
	// monASN is the sorted vantage-point set; monIdx maps an ASN to its
	// dense position in monASN (and in every row).
	monASN []bgp.ASN
	monIdx map[bgp.ASN]int32

	arena *routing.PathArena
	// The route table, indexed by route id: the route's span, how many row
	// entries hold it, and the next id with the same key. Id 0 is the empty
	// span, "no route". byKey heads each key's chain. A route whose count
	// drops to 0 stays findable, so a flapping route is revived without
	// allocating; maybeCompact sweeps such routes and frees their ids.
	spans            []routing.PathSpan
	refs, next, free []int32
	byKey            map[routeKey]int32

	// rows holds every prefix's row of route ids, stride len(monASN), keys
	// its prefix, and index, probed linearly from a key's seeded hash, its
	// row+1 (0 is empty); index doubles, rebuilt from keys, once ¾ full.
	rows  []int32
	keys  []pfxKey
	index []int32
	seed  uint64

	// live weighs the referenced routes in 4-byte words, a route weighing
	// its body plus routeWords; the rest of what the table and arena hold
	// is dead weight, which the sweep reclaims once it outweighs live and
	// the rows together.
	live int

	liveRefs []*routing.PathSpan // compaction scratch

	// lastPfx/lastOff memoize the most recent rows lookup; lastPfx starts
	// as the zero Prefix, which no valid update carries. Update streams
	// arrive in same-prefix runs (a transition emits every changed
	// monitor's update for one prefix back to back), so the batch path
	// resolves most updates without hashing the prefix again.
	lastPfx netip.Prefix
	lastOff int
}

// routeWords is what a route costs beside its body, in 4-byte words: its
// span, count and chain link (7) and its key's map slot (≈9).
const routeWords = 16

// routeKey finds a route: routes with equal keys are told apart by their
// bodies, which differ only in intermediate prepends.
type routeKey struct {
	seg, n int32
	origin bgp.ASN
	prep   int16
}

// pfxKey is a prefix as a pointer-free 18-byte key (netip.Prefix holds a
// pointer the GC must scan). is4, 1 for an IPv4 prefix, keeps 10.0.0.0/8
// apart from ::ffff:10.0.0.0/8.
type pfxKey struct {
	addr      [16]byte
	bits, is4 uint8
}

func keyOf(p netip.Prefix) pfxKey {
	a := p.Addr() // BitLen is 32 for IPv4, 128 for IPv6 and 0 for neither
	return pfxKey{a.As16(), uint8(p.Bits()), uint8(a.BitLen()>>5) & 1}
}

// hash mixes k's address words under the detector's random seed (a feed
// of network prefixes must not pick the collisions), then its bits and
// flag bytes, by 64×64→128-bit multiplies folded to 64 bits.
func (d *Detector) hash(k *pfxKey) uint64 {
	hi, lo := bits.Mul64(binary.LittleEndian.Uint64(k.addr[:8])^d.seed,
		binary.LittleEndian.Uint64(k.addr[8:])^d.seed^0xa0761d6478bd642f)
	hi, lo = bits.Mul64(hi^lo^uint64(k.bits)^uint64(k.is4)<<8, 0xe7037ed1a0b428db)
	return hi ^ lo
}

// find returns k's row, or -1 and the empty slot k would take.
func (d *Detector) find(k *pfxKey) (row int32, slot int) {
	mask := len(d.index) - 1
	for i := int(d.hash(k)) & mask; ; i = (i + 1) & mask {
		if r := d.index[i]; r == 0 || d.keys[r-1] == *k {
			return r - 1, i
		}
	}
}

// rowOf returns k's row, appending an empty one if k is new.
func (d *Detector) rowOf(k pfxKey) int32 {
	r, slot := d.find(&k)
	if r >= 0 {
		return r
	}
	if len(d.keys) == cap(d.keys) { // a quarter more, where append would double
		d.keys = append(make([]pfxKey, 0, len(d.keys)*5/4+8), d.keys...)
	}
	d.keys = append(d.keys, k)
	d.rows = append(d.rows, make([]int32, len(d.monASN))...)
	d.index[slot] = int32(len(d.keys)) // the new row, plus one
	if 4*len(d.keys) > 3*len(d.index) {
		d.index = make([]int32, 2*len(d.index))
		mask := len(d.index) - 1
		for r := range d.keys { // distinct keys: take the first empty slot, compare none
			i := int(d.hash(&d.keys[r])) & mask
			for d.index[i] != 0 {
				i = (i + 1) & mask
			}
			d.index[i] = int32(r + 1)
		}
	}
	return int32(len(d.keys) - 1)
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
		spans:  []routing.PathSpan{{Seg: -1}},
		refs:   []int32{0},
		next:   []int32{0},
		byKey:  make(map[routeKey]int32),
		index:  make([]int32, 8),
		seed:   new(maphash.Hash).Sum64(),
	}
}

// Monitors returns the configured vantage points, sorted.
func (d *Detector) Monitors() []bgp.ASN {
	return append([]bgp.ASN(nil), d.monASN...)
}

// Observe processes one update and returns any alarms it triggers.
// Updates from non-monitor ASes are ignored. Warmed steady state — every
// prefix and route seen before, no alarms — runs allocation-free.
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
//   - the rows lookup, skipped for same-prefix runs via the lastPfx memo
//     (transition streams announce one prefix's changes from every
//     monitor back to back);
//   - the route-table sweep check and the sweep itself, run once after
//     the batch instead of after every update. Deferring it is
//     verdict-invariant: a sweep frees only routes no row holds, and
//     Compact moves bodies but never touches the interned segment table
//     detection compares against.
//
// A warmed batch over known prefixes and routes appends into dst's spare
// capacity and is otherwise allocation-free.
func (d *Detector) ObserveBatch(updates []bgp.Update, dst []Alarm) []Alarm {
	for i := range updates {
		dst = d.observeOne(&updates[i], dst)
	}
	d.maybeCompact()
	return dst
}

// observeOne is the shared per-update core: it stores the route and
// appends any alarms to dst, leaving the sweep to the caller.
func (d *Detector) observeOne(u *bgp.Update, dst []Alarm) []Alarm {
	if err := u.Validate(); err != nil {
		return dst
	}
	mi, ok := d.monIdx[u.Monitor]
	if !ok {
		return dst
	}
	m := len(d.monASN)
	if u.Prefix != d.lastPfx {
		d.lastPfx, d.lastOff = u.Prefix, int(d.rowOf(keyOf(u.Prefix)))*m
	}
	row := d.rows[d.lastOff : d.lastOff+m]
	prev, id := row[mi], int32(0)
	if u.Type == bgp.Announce {
		id = d.route(u.Path)
	}
	d.addRef(id, 1)
	d.addRef(prev, -1)
	row[mi] = id
	if id == 0 {
		return dst
	}
	// The replaced route stays in the table until the next sweep, so its
	// span is still the one the rule reads Prep and Origin off.
	return detectRow(d.arena, d.monASN, row, d.spans, int(mi), d.spans[prev], d.rels, dst)
}

// route returns the id of p's route. The route is looked up before
// anything is written, and its body stored only on first sight.
func (d *Detector) route(p bgp.Path) int32 {
	sp := d.arena.Span(p)
	k := routeKey{seg: sp.Seg, n: sp.Len, origin: sp.Origin, prep: sp.Prep}
	head := d.byKey[k]
	for id := head; id != 0; id = d.next[id] {
		if slices.Equal(d.arena.Body(d.spans[id]), p[:sp.Len]) {
			return id
		}
	}
	sp = d.arena.Store(p)
	id := int32(len(d.spans))
	if n := len(d.free); n > 0 {
		id, d.free = d.free[n-1], d.free[:n-1]
		d.spans[id], d.refs[id], d.next[id] = sp, 0, head
	} else {
		d.spans, d.refs, d.next = append(d.spans, sp), append(d.refs, 0), append(d.next, head)
	}
	d.byKey[k] = id
	return id
}

// addRef moves route id's count by delta, keeping live current. Id 0, no
// route, is not counted.
func (d *Detector) addRef(id, delta int32) {
	if id == 0 {
		return
	}
	w := int(d.spans[id].Len) + routeWords
	if d.refs[id] == 0 {
		d.live += w
	}
	d.refs[id] += delta
	if d.refs[id] == 0 {
		d.live -= w
	}
}

// maybeCompact sweeps the route table once the unreferenced routes
// outweigh everything live, the referenced routes and the rows: every
// route no row holds is unlinked from its key's chain and its id freed,
// then the arena is compacted over the routes left. Rows hold ids, so no
// row is touched. Counting the rows lets routes a churning table drops
// and restores stay findable across many cycles instead of being swept
// and stored again each time, while dead routes stay within the live
// footprint.
func (d *Detector) maybeCompact() {
	held := d.arena.Size() + routeWords*(len(d.spans)-1-len(d.free)) // every unswept route's weight
	if held-d.live <= d.live+len(d.rows) {
		return
	}
	d.liveRefs = d.liveRefs[:0]
	for k, id := range d.byKey {
		var head, last int32
		for ; id != 0; id = d.next[id] {
			if d.refs[id] == 0 {
				d.free = append(d.free, id)
				continue
			}
			if last == 0 {
				head = id
			} else {
				d.next[last] = id
			}
			last = id
			d.liveRefs = append(d.liveRefs, &d.spans[id])
		}
		if head == 0 {
			delete(d.byKey, k)
			continue
		}
		d.next[last] = 0
		d.byKey[k] = head
	}
	d.arena.Compact(d.liveRefs)
}

// MemoryBytes is the detector's resident footprint: the path arena, the
// row, key and index slabs and the route table at capacity, and the two
// maps. The serve pipeline's soak gate samples this to assert the
// streaming table plateaus instead of leaking, and /metrics reports it.
func (d *Detector) MemoryBytes() int64 {
	if d == nil {
		return 0
	}
	return int64(unsafe.Sizeof(*d)) + d.arena.MemoryBytes() +
		sliceBytes(d.rows) + sliceBytes(d.keys) + sliceBytes(d.index) + sliceBytes(d.spans) +
		sliceBytes(d.refs) + sliceBytes(d.next) + sliceBytes(d.free) + sliceBytes(d.liveRefs) +
		sliceBytes(d.monASN) + mapBytes(d.byKey) + mapBytes(d.monIdx)
}

func sliceBytes[T any](s []T) int64 {
	var zero T
	return int64(cap(s)) * int64(unsafe.Sizeof(zero))
}

// mapBytes estimates a map's tables, which Go does not expose: a slot
// holds a key, a value and a control byte, and a growing table runs
// between 7/16 and 7/8 full, so each entry is charged its slot over the
// middle of that cycle.
func mapBytes[K comparable, V any](m map[K]V) int64 {
	var slot struct {
		k K
		v V
	}
	return int64(len(m)) * (int64(unsafe.Sizeof(slot)) + 1) * 12 / 7
}

// RouteOf returns the detector's current view of monitor's route for a
// prefix (nil if unknown), materialized off the arena.
func (d *Detector) RouteOf(prefix netip.Prefix, monitor bgp.ASN) bgp.Path {
	mi, ok := d.monIdx[monitor]
	k := keyOf(prefix)
	if r, _ := d.find(&k); ok && r >= 0 {
		return d.arena.Path(d.spans[d.rows[int(r)*len(d.monASN)+int(mi)]])
	}
	return nil
}
