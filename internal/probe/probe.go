// Package probe is the one open-addressing index behind every interned id
// (DESIGN §5c): the streaming detector's prefixes, rows and routes and the
// path arena's segments. An Index holds ids, not keys: a power-of-two
// []int32 of id+1 (0 is empty), probed linearly from a hash the caller
// supplies, and the caller keeps each id's key and hash. So the table costs
// 4 bytes a slot, 4/3 to 8/3 slots an id, and the GC scans none of it.
package probe

import "math/bits"

// Index finds ids by hash. The zero value is an empty index. It doubles
// once more than ¾ full. Put and Delete take hash, which must give
// every held id the hash it was put under.
type Index struct {
	slots []int32
	n     int
}

// Find returns the first id probed from h that eq accepts, or -1 once the
// probe reaches an empty slot.
func (x *Index) Find(h uint64, eq func(id int32) bool) int32 {
	mask := uint64(len(x.slots) - 1)
	for i := h; len(x.slots) > 0; i++ {
		r := x.slots[i&mask]
		if r == 0 {
			break
		}
		if eq(r - 1) {
			return r - 1
		}
	}
	return -1
}

// Put adds id, which the index must not hold, under h.
func (x *Index) Put(h uint64, id int32, hash func(id int32) uint64) {
	if x.n++; 4*x.n > 3*len(x.slots) {
		old := x.slots
		x.slots = make([]int32, max(8, 2*len(old)))
		for _, r := range old {
			if r != 0 {
				x.place(hash(r-1), r)
			}
		}
	}
	x.place(h, id+1)
}

// place writes r into the first empty slot from h's home.
func (x *Index) place(h uint64, r int32) {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = r
}

// Delete removes id, which the index holds under h. Each later id of its
// probe run whose home does not lie between the emptied slot and its own
// shifts back into the hole, so no run is cut short.
func (x *Index) Delete(h uint64, id int32, hash func(id int32) uint64) {
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for x.slots[i] != id+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		if home := hash(x.slots[j]-1) & mask; (j-home)&mask >= (j-i)&mask {
			x.slots[i], i = x.slots[j], j
		}
	}
	x.slots[i] = 0
	x.n--
}

// Clear empties the index and keeps its table.
func (x *Index) Clear() {
	clear(x.slots)
	x.n = 0
}

// MemoryBytes is the table at capacity.
func (x *Index) MemoryBytes() int64 { return 4 * int64(cap(x.slots)) }

// Words hashes ws under seed: per word, a 64×64→128-bit multiply folded to
// 64 bits.
func Words[W ~uint32](seed uint64, ws []W) uint64 {
	for _, w := range ws {
		hi, lo := bits.Mul64(seed^uint64(w), 0x9e3779b97f4a7c15)
		seed = hi ^ lo
	}
	return seed
}
