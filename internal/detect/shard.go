package detect

import "net/netip"

// PrefixShard maps a prefix to one of n shards, the unit the serve
// pipeline scales across cores. Detection is a per-prefix computation —
// every witness the Fig. 4 rule consults holds a route for the SAME prefix —
// so a Detector per shard leaves each shard's verdicts identical to an
// unsharded detector's (the sharded-vs-serial differential pins this).
// The hash is FNV-1a over the masked prefix's canonical 16-byte address
// plus the prefix length — stable across runs and processes (load
// generators and servers agree), family-agnostic, the same for 10.0.0.1/8
// as for 10.0.0.0/8 (the detector's key), and spreading dense prefix blocks
// that a range split would cluster (the collector's synthetic /24s are
// consecutive).
func PrefixShard(pfx netip.Prefix, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	a := pfx.Masked().Addr().As16()
	for _, b := range a {
		h = (h ^ uint64(b)) * prime64
	}
	h = (h ^ uint64(uint8(pfx.Bits()))) * prime64
	return int(h % uint64(n))
}
