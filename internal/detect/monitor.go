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
// a detector-owned routing.PathArena and named by a route id. Rows are
// interned too: a row is a distinct vector of route ids, one per monitor
// (dense monitor index), stored once, and a prefix holds one row id. The
// prefixes of one origin mostly reach every monitor over the same paths
// (a policy atom), so a full table costs a 4-byte row id per prefix, not a
// row of 4·m bytes.
type Detector struct {
	rels RelQuerier
	// monASN is the sorted vantage-point set; monIdx maps an ASN to its
	// dense position in monASN (and in every row).
	monASN []bgp.ASN
	monIdx map[bgp.ASN]int32

	arena *routing.PathArena
	// The route table, indexed by route id: the route's span, how many row
	// slots hold it, and the next id with the same key. Id 0 is the empty
	// span, "no route". byKey heads each key's chain. A route whose count
	// drops to 0 stays findable, so a flapping route is revived without
	// allocating; maybeCompact sweeps such routes and frees their ids.
	spans            []routing.PathSpan
	refs, next, free []int32
	byKey            map[routeKey]int32

	// The row table, indexed by row id: each distinct row (stride
	// len(monASN)), how many prefixes hold it, its hash and the next row in
	// its rowHeads bucket (-1 ends a chain); rowHeads has a power of two
	// buckets, one or more per row. Row 0, the empty row, holds a reference
	// of its own; any other row goes on rowFree once no prefix holds it.
	rows, rowRefs, rowNext, rowHeads, rowFree []int32
	rowHash                                   []uint64

	// keys holds every prefix's key and rowIDs its row, by prefix slot;
	// index, probed linearly from a key's seeded hash, holds its slot+1 (0
	// is empty) and doubles, rebuilt from keys, once ¾ full.
	keys   []pfxKey
	rowIDs []int32
	index  []int32
	seed   uint64

	// live weighs the referenced routes in 4-byte words, a route weighing
	// its body plus routeWords; the rest of what the table and arena hold
	// is dead weight, which the sweep reclaims once it outweighs live, the
	// row slab and the prefix slots together.
	live int

	liveRefs []*routing.PathSpan // compaction scratch

	// lastPfx/lastOff memoize the most recent prefix slot lookup; lastPfx
	// starts as the zero Prefix, which no valid update carries. Update
	// streams arrive in same-prefix runs (a transition emits every changed
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

// pfxKey is a masked prefix as a pointer-free 18-byte key (netip.Prefix
// holds a pointer the GC must scan), so 10.0.0.1/8 is 10.0.0.0/8. is4 is 1
// for an IPv4 prefix; 10.0.0.0/8 and its mapped twin ::ffff:10.0.0.0/104
// share As16 but not their bits.
type pfxKey struct {
	addr      [16]byte
	bits, is4 uint8
}

func keyOf(p netip.Prefix) pfxKey {
	a := p.Masked().Addr() // BitLen is 32 for IPv4, 128 for IPv6 and 0 for neither
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

// find returns k's prefix slot, or -1 and the empty index slot k would take.
func (d *Detector) find(k *pfxKey) (slot int32, at int) {
	mask := len(d.index) - 1
	for i := int(d.hash(k)) & mask; ; i = (i + 1) & mask {
		if r := d.index[i]; r == 0 || d.keys[r-1] == *k {
			return r - 1, i
		}
	}
}

// slotOf returns k's prefix slot, appending one that holds the empty row
// if k is new.
func (d *Detector) slotOf(k pfxKey) int32 {
	r, at := d.find(&k)
	if r >= 0 {
		return r
	}
	if len(d.keys) == cap(d.keys) { // a quarter more, where append would double
		n := len(d.keys)*5/4 + 8
		d.keys = append(make([]pfxKey, 0, n), d.keys...)
		d.rowIDs = append(make([]int32, 0, n), d.rowIDs...)
	}
	d.keys, d.rowIDs = append(d.keys, k), append(d.rowIDs, 0)
	d.rowRefs[0]++
	d.index[at] = int32(len(d.keys)) // the new slot, plus one
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

// mix is route id's share of a row's hash at monitor position k, 0 for no
// route. A row hashes to the sum of its shares, so setting one slot moves
// the hash in O(1); the seed keeps a feed from choosing collisions.
func (d *Detector) mix(k int, id int32) uint64 {
	hi, lo := bits.Mul64(uint64(uint32(id)), d.seed^uint64(k)*0x9e3779b97f4a7c15|1)
	return hi ^ lo
}

// setSlot returns the row that is row r with slot mi set to id, for one
// prefix leaving r: an equal live row if there is one, else r rewritten in
// place if no other prefix holds it, else a new row.
func (d *Detector) setSlot(r int32, mi int, id int32) int32 {
	m := len(d.monASN)
	old, prev := d.rows[int(r)*m:int(r)*m+m], d.rows[int(r)*m+mi]
	h := d.rowHash[r] - d.mix(mi, prev) + d.mix(mi, id)
	for c := d.rowHeads[h&uint64(len(d.rowHeads)-1)]; c >= 0; c = d.rowNext[c] {
		if cr := d.rows[int(c)*m : int(c)*m+m]; d.rowHash[c] == h && cr[mi] == id &&
			slices.Equal(cr[:mi], old[:mi]) && slices.Equal(cr[mi+1:], old[mi+1:]) {
			d.rowRefs[c]++
			if d.rowRefs[r]--; d.rowRefs[r] == 0 { // r's last prefix left: free it
				d.unlink(r)
				for _, x := range old {
					d.addRef(x, -1)
				}
				d.rowFree = append(d.rowFree, r)
			}
			return c
		}
	}
	n := r
	if d.rowRefs[r] == 1 {
		d.unlink(r)
	} else { // copy r to a free row, or a new one
		d.rowRefs[r]--
		if k := len(d.rowFree); k > 0 {
			n, d.rowFree = d.rowFree[k-1], d.rowFree[:k-1]
			copy(d.rows[int(n)*m:], old)
		} else {
			n = int32(len(d.rowRefs))
			d.rows = append(d.rows, old...) // old still reads the slab it was cut from
			d.rowRefs, d.rowNext, d.rowHash = append(d.rowRefs, 0), append(d.rowNext, 0), append(d.rowHash, 0)
			if len(d.rowRefs) > len(d.rowHeads) { // double the buckets and relink the live rows
				d.rowHeads = make([]int32, 2*len(d.rowHeads))
				for b := range d.rowHeads {
					d.rowHeads[b] = -1
				}
				for x, c := range d.rowRefs {
					if c > 0 {
						d.link(int32(x), d.rowHash[x])
					}
				}
			}
		}
		d.rowRefs[n] = 1
		for _, x := range old {
			d.addRef(x, 1)
		}
	}
	d.rows[int(n)*m+mi] = id
	d.addRef(id, 1)
	d.addRef(prev, -1)
	d.link(n, h)
	return n
}

// link files row r, of hash h, at the head of its bucket.
func (d *Detector) link(r int32, h uint64) {
	b := &d.rowHeads[h&uint64(len(d.rowHeads)-1)]
	d.rowHash[r], d.rowNext[r], *b = h, *b, r
}

// unlink takes row r off its bucket's chain.
func (d *Detector) unlink(r int32) {
	p := &d.rowHeads[d.rowHash[r]&uint64(len(d.rowHeads)-1)]
	for *p != r {
		p = &d.rowNext[*p]
	}
	*p = d.rowNext[r]
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
		rels:     rels,
		monASN:   asns,
		monIdx:   idx,
		arena:    routing.NewPathArena(),
		spans:    []routing.PathSpan{{Seg: -1}},
		refs:     []int32{0},
		next:     []int32{0},
		byKey:    make(map[routeKey]int32),
		rows:     make([]int32, len(asns)),
		rowRefs:  []int32{1},
		rowNext:  []int32{-1},
		rowHeads: []int32{0, -1}, // the empty row hashes to 0
		rowHash:  []uint64{0},
		index:    make([]int32, 8),
		seed:     new(maphash.Hash).Sum64(),
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
		d.lastPfx, d.lastOff = u.Prefix, int(d.slotOf(keyOf(u.Prefix)))
	}
	r := d.rowIDs[d.lastOff]
	prev, id := d.rows[int(r)*m+int(mi)], int32(0)
	if u.Type == bgp.Announce {
		id = d.route(u.Path)
	}
	if id != prev {
		r = d.setSlot(r, int(mi), id)
		d.rowIDs[d.lastOff] = r
	}
	if id == 0 {
		return dst
	}
	// The replaced route stays in the table until the next sweep, so its
	// span is still the one the rule reads Prep and Origin off.
	return detectRow(d.arena, d.monASN, d.rows[int(r)*m:int(r)*m+m], d.spans, int(mi), d.spans[prev], d.rels, dst)
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
// outweigh everything live, the referenced routes, the row slab and the
// prefix slots: every route no row holds is unlinked from its key's chain
// and its id freed, then the arena is compacted over the routes left. Rows
// hold ids, so no row is touched. Counting the rows and prefixes lets
// routes a churning table drops and restores stay findable across many
// cycles instead of being swept and stored again each time, while dead
// routes stay within the live footprint.
func (d *Detector) maybeCompact() {
	held := d.arena.Size() + routeWords*(len(d.spans)-1-len(d.free)) // every unswept route's weight
	if held-d.live <= d.live+len(d.rows)+len(d.rowIDs) {
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
// row table, the key, row-id and index slabs and the route table at
// capacity, and the two maps. The serve pipeline's soak gate samples this
// to assert the streaming table plateaus instead of leaking, and /metrics
// reports it.
func (d *Detector) MemoryBytes() int64 {
	if d == nil {
		return 0
	}
	return int64(unsafe.Sizeof(*d)) + d.arena.MemoryBytes() + sliceBytes(d.rows) + sliceBytes(d.rowRefs) +
		sliceBytes(d.rowNext) + sliceBytes(d.rowHeads) + sliceBytes(d.rowFree) + sliceBytes(d.rowHash) +
		sliceBytes(d.keys) + sliceBytes(d.rowIDs) + sliceBytes(d.index) + sliceBytes(d.spans) +
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
		return d.arena.Path(d.spans[d.rows[int(d.rowIDs[r])*len(d.monASN)+int(mi)]])
	}
	return nil
}

// Sizes counts the prefixes, the live rows (the empty row among them) and
// the routes in the table, referenced or awaiting the sweep.
func (d *Detector) Sizes() (prefixes, rows, routes int) {
	return len(d.keys), len(d.rowRefs) - len(d.rowFree), len(d.spans) - 1 - len(d.free)
}
