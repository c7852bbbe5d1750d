package detect

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"net/netip"
	"slices"
	"unsafe"

	"aspp/internal/bgp"
	"aspp/internal/probe"
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
	// monASN is the sorted vantage-point set; a monitor's position in it
	// is its slot in every row.
	monASN []bgp.ASN

	arena *routing.PathArena
	// The route table, indexed by route id: the route's span and how many
	// row slots hold it. Id 0 is the empty span, "no route", and a freed
	// id holds it too. routeIdx finds an id by routeHash. A route whose
	// count drops to 0 stays findable, so a flapping route is revived
	// without allocating; maybeCompact sweeps such routes and frees their
	// ids.
	spans      []routing.PathSpan
	refs, free []int32
	routeIdx   probe.Index

	// The row table, indexed by row id: each distinct row (stride
	// len(monASN)), how many prefixes hold it and its hash, under which
	// rowIdx finds it. Row 0, the empty row, holds a reference of its own;
	// any other row goes on rowFree once no prefix holds it.
	rows, rowRefs, rowFree []int32
	rowHash                []uint64
	rowIdx                 probe.Index

	// keys holds every prefix's key word (keyOf) and rowIDs its row, by
	// prefix slot; over holds the IPv6 prefixes' 17-byte keys.
	// index finds a key's slot by its hash.
	keys   []uint64
	over   []pfxKey
	rowIDs []int32
	index  probe.Index
	seed   uint64

	// live weighs the referenced routes in 4-byte words, a route weighing
	// its body plus routeWords; the rest of what the table and arena hold,
	// segments included (DESIGN §5c), is dead weight, which the sweep
	// reclaims once it outweighs live, the row slab and the prefix slots.
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

// routeWords is what a route costs beside its body and segment, in 4-byte
// words: its span, count and index slots (≤ 9) and its segment's span and
// index slots (≤ 5), rounded up.
const routeWords = 16

// pfxKey is a masked IPv6 prefix as a pointer-free 17-byte key
// (netip.Prefix holds a pointer the GC must scan). 10.0.0.0/8's mapped
// twin ::ffff:10.0.0.0/104 is one.
type pfxKey struct {
	addr [16]byte
	bits uint8
}

// keyOf returns the masked prefix p's key, so 10.0.0.1/8 is 10.0.0.0/8: an
// IPv4 prefix's key word has bit 63 set, the length in bits 32–37 and the
// address below; an IPv6 prefix returns word 0 and its 17-byte key, and its
// slot's word holds the key's index in over.
func keyOf(p netip.Prefix) (uint64, pfxKey) {
	p = p.Masked()
	if a := p.Addr(); a.Is4() {
		a4 := a.As4()
		return 1<<63 | uint64(p.Bits())<<32 | uint64(binary.BigEndian.Uint32(a4[:])), pfxKey{}
	}
	return 0, pfxKey{p.Addr().As16(), uint8(p.Bits())}
}

// overIdx returns the over index a key word names and whether it names one:
// a word with bit 63 clear.
func overIdx(w uint64) (int, bool) { return int(w), w>>63 == 0 }

// wordHash mixes a key word under the detector's random seed (a feed of
// network prefixes must not pick the collisions) by two 64×64→128-bit
// multiplies folded to 64 bits.
func (d *Detector) wordHash(w uint64) uint64 {
	hi, lo := bits.Mul64(w^d.seed, 0xa0761d6478bd642f)
	hi, lo = bits.Mul64(hi^lo, 0xe7037ed1a0b428db)
	return hi ^ lo
}

// hash mixes an IPv6 key's address words under the seed, then its
// bits. Word 0 is mixed alone before word 1 joins it: one product of the
// two words would commute, so the keys with words (a, b) and (b^c, a^c)
// would collide under every seed.
func (d *Detector) hash(k *pfxKey) uint64 {
	hi, lo := bits.Mul64(binary.LittleEndian.Uint64(k.addr[:8])^d.seed, 0xa0761d6478bd642f)
	hi, lo = bits.Mul64(hi^lo, binary.LittleEndian.Uint64(k.addr[8:])^d.seed^0x9e3779b97f4a7c15)
	hi, lo = bits.Mul64(hi^lo^uint64(k.bits), 0xe7037ed1a0b428db)
	return hi ^ lo
}

func (d *Detector) keyHash(r int32) uint64 {
	if i, ok := overIdx(d.keys[r]); ok {
		return d.hash(&d.over[i])
	}
	return d.wordHash(d.keys[r])
}

// lookup returns p's key (keyOf), its hash and p's prefix slot, -1 if p is
// new. IPv4 words compare whole; an IPv6 key compares with the over entry
// a word names.
func (d *Detector) lookup(p netip.Prefix) (w uint64, k pfxKey, h uint64, r int32) {
	if w, k = keyOf(p); w != 0 {
		h = d.wordHash(w)
		return w, k, h, d.index.Find(h, func(r int32) bool { return d.keys[r] == w })
	}
	h = d.hash(&k)
	return w, k, h, d.index.Find(h, func(r int32) bool {
		i, ok := overIdx(d.keys[r])
		return ok && d.over[i] == k
	})
}

// slotOf returns p's prefix slot, appending one that holds the empty row
// if p is new.
func (d *Detector) slotOf(p netip.Prefix) int32 {
	w, k, h, r := d.lookup(p)
	if r >= 0 {
		return r
	}
	if w == 0 {
		w, d.over = uint64(len(d.over)), append(d.over, k)
	}
	if len(d.keys) == cap(d.keys) { // a quarter more, where append would double
		n := len(d.keys)*5/4 + 8
		d.keys = append(make([]uint64, 0, n), d.keys...)
		d.rowIDs = append(make([]int32, 0, n), d.rowIDs...)
	}
	d.keys, d.rowIDs = append(d.keys, w), append(d.rowIDs, 0)
	d.rowRefs[0]++
	r = int32(len(d.keys) - 1)
	d.index.Put(h, r, d.keyHash)
	return r
}

// mix is route id's share of a row's hash at monitor position k, 0 for no
// route. A row hashes to the sum of its shares, so setting one slot moves
// the hash in O(1); the seed keeps a feed from choosing collisions.
func (d *Detector) mix(k int, id int32) uint64 {
	hi, lo := bits.Mul64(uint64(uint32(id)), d.seed^uint64(k)*0x9e3779b97f4a7c15|1)
	return hi ^ lo
}

func (d *Detector) rowHashOf(r int32) uint64 { return d.rowHash[r] }

// setSlot returns the row that is row r with slot mi set to id, for one
// prefix leaving r: an equal live row if there is one, else r rewritten in
// place if no other prefix holds it, else a new row.
func (d *Detector) setSlot(r int32, mi int, id int32) int32 {
	m := len(d.monASN)
	old, prev := d.rows[int(r)*m:int(r)*m+m], d.rows[int(r)*m+mi]
	h := d.rowHash[r] - d.mix(mi, prev) + d.mix(mi, id)
	if c := d.rowIdx.Find(h, func(c int32) bool {
		cr := d.rows[int(c)*m : int(c)*m+m]
		return d.rowHash[c] == h && cr[mi] == id && slices.Equal(cr[:mi], old[:mi]) && slices.Equal(cr[mi+1:], old[mi+1:])
	}); c >= 0 {
		d.rowRefs[c]++
		if d.rowRefs[r]--; d.rowRefs[r] == 0 { // r's last prefix left: free it
			d.rowIdx.Delete(d.rowHash[r], r, d.rowHashOf)
			for _, x := range old {
				d.addRef(x, -1)
			}
			d.rowFree = append(d.rowFree, r)
		}
		return c
	}
	n := r
	if d.rowRefs[r] == 1 {
		d.rowIdx.Delete(d.rowHash[r], r, d.rowHashOf)
	} else { // copy r to a free row, or a new one
		d.rowRefs[r]--
		if k := len(d.rowFree); k > 0 {
			n, d.rowFree = d.rowFree[k-1], d.rowFree[:k-1]
			copy(d.rows[int(n)*m:], old)
		} else {
			n = int32(len(d.rowRefs))
			d.rows = append(d.rows, old...) // old still reads the slab it was cut from
			d.rowRefs, d.rowHash = append(d.rowRefs, 0), append(d.rowHash, 0)
		}
		d.rowRefs[n] = 1
		for _, x := range old {
			d.addRef(x, 1)
		}
	}
	d.rows[int(n)*m+mi], d.rowHash[n] = id, h
	d.addRef(id, 1)
	d.addRef(prev, -1)
	d.rowIdx.Put(h, n, d.rowHashOf)
	return n
}

// NewDetector builds a streaming detector for the given vantage points.
// rels may be nil to disable the relationship-hint rules; otherwise each
// detector memoizes its own answers (relMemo), so rels is asked about a
// pair again only once another pair has taken its slot.
func NewDetector(monitors []bgp.ASN, rels RelQuerier) *Detector {
	asns := slices.Clone(monitors)
	slices.Sort(asns)
	asns = slices.Compact(asns)
	if rels != nil {
		rels = &relMemo{q: rels}
	}
	d := &Detector{
		rels:    rels,
		monASN:  asns,
		arena:   routing.NewPathArena(),
		spans:   []routing.PathSpan{{Seg: -1}},
		refs:    []int32{0},
		rows:    make([]int32, len(asns)),
		rowRefs: []int32{1},
		rowHash: []uint64{0},
		seed:    new(maphash.Hash).Sum64(),
	}
	d.rowIdx.Put(0, 0, d.rowHashOf) // the empty row hashes to 0
	return d
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
//     Compact renumbers the segments of every route left at once, so
//     equal Seg ids still mean equal chains.
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
	mi, ok := slices.BinarySearch(d.monASN, u.Monitor)
	if !ok {
		return dst
	}
	m := len(d.monASN)
	if u.Prefix != d.lastPfx {
		d.lastPfx, d.lastOff = u.Prefix, int(d.slotOf(u.Prefix))
	}
	r := d.rowIDs[d.lastOff]
	prev, id := d.rows[int(r)*m+mi], int32(0)
	if u.Type == bgp.Announce {
		id = d.route(u.Path)
	}
	if id != prev {
		r = d.setSlot(r, mi, id)
		d.rowIDs[d.lastOff] = r
	}
	if id == 0 {
		return dst
	}
	// The replaced route stays in the table until the next sweep, so its
	// span is still the one the rule reads Prep and Origin off.
	s := sink{out: dst}
	detectRow(d.arena, d.monASN, d.rows[int(r)*m:int(r)*m+m], d.spans, mi, d.spans[prev], d.rels, &s)
	return s.out
}

// route returns the id of p's route. The route is looked up before
// anything is written, and stored only on first sight.
func (d *Detector) route(p bgp.Path) int32 {
	prep := p.OriginPrepend()
	body, origin := p[:len(p)-prep], p[len(p)-1]
	h := routeHash(d.seed, body, prep, origin)
	if id := d.routeIdx.Find(h, func(id int32) bool {
		s := d.spans[id]
		return int(s.Prep) == prep && s.Origin == origin && slices.Equal(d.arena.Body(s), body)
	}); id >= 0 {
		return id
	}
	sp := d.arena.Store(p)
	id := int32(len(d.spans))
	if n := len(d.free); n > 0 {
		id, d.free = d.free[n-1], d.free[:n-1]
		d.spans[id], d.refs[id] = sp, 0
	} else {
		d.spans, d.refs = append(d.spans, sp), append(d.refs, 0)
	}
	d.routeIdx.Put(h, id, d.routeHashOf)
	return id
}

// routeHash hashes a route's body under seed, then its origin copies and
// origin by one more multiply, so the origin cannot cancel a body word.
func routeHash(seed uint64, body []bgp.ASN, prep int, origin bgp.ASN) uint64 {
	hi, lo := bits.Mul64(probe.Words(seed, body)^uint64(prep)<<32^uint64(origin), 0xe7037ed1a0b428db)
	return hi ^ lo
}

func (d *Detector) routeHashOf(id int32) uint64 {
	s := d.spans[id]
	return routeHash(d.seed, d.arena.Body(s), int(s.Prep), s.Origin)
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

// maybeCompact sweeps the route table once the unreferenced routes and the
// segments outweigh everything live, the referenced routes, the row slab
// and the prefix slots: walking ids in order, it frees every route no row
// holds and puts the others back in a cleared route index, then compacts
// the arena over the routes left, which also drops the freed routes'
// segments. Rows hold ids, so no row is touched. Counting the rows and
// prefixes lets routes a churning table drops and restores stay findable
// across many cycles instead of being swept and stored again each time,
// while dead routes stay within the live footprint.
func (d *Detector) maybeCompact() {
	held := d.arena.Size() + routeWords*(len(d.spans)-1-len(d.free)) // every unswept route's weight
	if held-d.live <= d.live+len(d.rows)+len(d.rowIDs) {
		return
	}
	d.liveRefs = d.liveRefs[:0]
	d.routeIdx.Clear()
	for id := int32(1); id < int32(len(d.spans)); id++ {
		switch {
		case d.spans[id].Seg < 0: // free already: the empty span
		case d.refs[id] == 0:
			d.spans[id] = d.spans[0]
			d.free = append(d.free, id)
		default:
			d.routeIdx.Put(d.routeHashOf(id), id, d.routeHashOf)
			d.liveRefs = append(d.liveRefs, &d.spans[id])
		}
	}
	d.arena.Compact(d.liveRefs)
}

// MemoryBytes is the detector's resident footprint, every slab and index
// at capacity plus the path arena and the relationship memo. The serve
// pipeline's soak gate samples this to assert the streaming table plateaus
// instead of leaking, and /metrics reports it.
func (d *Detector) MemoryBytes() int64 {
	if d == nil {
		return 0
	}
	var memo int64
	if m, ok := d.rels.(*relMemo); ok {
		memo = int64(unsafe.Sizeof(*m))
	}
	return int64(unsafe.Sizeof(*d)) + memo + d.arena.MemoryBytes() + sliceBytes(d.rows) + sliceBytes(d.rowRefs) +
		sliceBytes(d.rowFree) + sliceBytes(d.rowHash) + d.rowIdx.MemoryBytes() + sliceBytes(d.keys) + sliceBytes(d.over) +
		sliceBytes(d.rowIDs) + d.index.MemoryBytes() + sliceBytes(d.spans) + sliceBytes(d.refs) +
		sliceBytes(d.free) + d.routeIdx.MemoryBytes() + sliceBytes(d.liveRefs) + sliceBytes(d.monASN)
}

func sliceBytes[T any](s []T) int64 {
	var zero T
	return int64(cap(s)) * int64(unsafe.Sizeof(zero))
}

// RouteOf returns the detector's current view of monitor's route for a
// prefix (nil if unknown), materialized off the arena.
func (d *Detector) RouteOf(prefix netip.Prefix, monitor bgp.ASN) bgp.Path {
	mi, ok := slices.BinarySearch(d.monASN, monitor)
	if _, _, _, r := d.lookup(prefix); ok && r >= 0 {
		return d.arena.Path(d.spans[d.rows[int(d.rowIDs[r])*len(d.monASN)+mi]])
	}
	return nil
}

// Sizes counts the prefixes, the live rows (the empty row among them) and
// the routes in the table, referenced or awaiting the sweep.
func (d *Detector) Sizes() (prefixes, rows, routes int) {
	return len(d.keys), len(d.rowRefs) - len(d.rowFree), len(d.spans) - 1 - len(d.free)
}
