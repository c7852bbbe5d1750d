package topology

import (
	"unsafe"

	"aspp/internal/bgp"
)

// fnv64 is the FNV-1a state used for structure digests — hand-rolled so
// hashing a graph is allocation-light and the constants are pinned here
// rather than inherited from hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvU32(h uint64, v uint32) uint64 {
	h = fnvByte(h, byte(v))
	h = fnvByte(h, byte(v>>8))
	h = fnvByte(h, byte(v>>16))
	return fnvByte(h, byte(v>>24))
}

// Digest returns a deterministic 64-bit FNV-1a hash of the graph's
// structure: the AS count, the sorted ASN set, and every link in Links()
// order (sorted by A, then B; a p2c link's A is its provider). It depends
// on logical content only — registration order and internal index
// numbering do not enter — so a graph keeps its digest across a serial-2
// write/read round trip (pinned by TestDigestSerial2RoundTrip). Scale runs pin the
// canonical internet80k digest instead of committing the ~300k-link
// graph (aspptopo -digest; TestInternet80kDigest).
func Digest(g *Graph) uint64 {
	h := uint64(fnvOffset64)
	h = fnvU32(h, uint32(g.NumASes()))
	order := g.asnOrder()
	for _, i := range order {
		h = fnvU32(h, uint32(g.asns[i]))
	}
	g.walkLinks(order, func(l Link) {
		h = fnvU32(h, uint32(l.A))
		h = fnvU32(h, uint32(l.B))
		h = fnvByte(h, byte(l.Rel))
	})
	return h
}

// graphMapEntryBytes approximates the per-entry cost of the ASN index
// map (4-byte key, 4-byte value, bucket/tophash bookkeeping). Go exposes
// no exact map accounting; the estimate errs high so budget checks stay
// conservative.
const graphMapEntryBytes = 24

// MemoryBytes is the resident footprint of the immutable CSR topology:
// the adjacency arrays and their ASN mirror, the index map (estimated —
// see graphMapEntryBytes), tiering and ordering tables. This is the
// csr_bytes gauge every sweep shares read-only across shards (DESIGN
// §5f); at internet80k scale it is a few tens of MB, dominated by the
// two adjacency mirrors.
func (g *Graph) MemoryBytes() int64 {
	if g == nil {
		return 0
	}
	const (
		asnSize   = int64(unsafe.Sizeof(bgp.ASN(0)))
		int32Size = int64(unsafe.Sizeof(int32(0)))
	)
	return int64(unsafe.Sizeof(*g)) +
		int64(cap(g.asns))*asnSize + int64(cap(g.enum))*asnSize +
		int64(cap(g.adj))*int32Size + int64(cap(g.asnAdj))*asnSize +
		int64(cap(g.off))*int32Size +
		int64(cap(g.tier)) +
		int64(cap(g.sibASes))*int32Size +
		int64(cap(g.tier1))*asnSize +
		int64(len(g.index))*graphMapEntryBytes
}
