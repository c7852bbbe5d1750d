package experiment

import (
	"aspp/internal/bgp"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// baselineCache memoizes one shard's no-attack baselines keyed by
// (origin, λ): a sweep draws many attacker/victim pairs from a small pool,
// and each victim is propagated once — on the shard's own Scratch, straight
// into storage the cache owns. The origin's padding changes no AS's choice,
// so another λ of the victim the shard asked for last is that Result
// shifted (routing.Result.Shifted), a copy and no propagation; it counts as
// a hit. Single-owner — it belongs to one shardState and only that shard's
// goroutine touches it.
//
// Invalidation rule: there is none — a cache is bound to one immutable Graph
// for its whole lifetime. Results are lent read-only. Only plain scenarios
// are cacheable: the key cannot represent per-neighbor prepending or
// withheld sessions.
//
// Byte accounting (DESIGN §5f): bytes tracks the installed Results, always,
// so the cache_bytes gauge reads on every sweep. Under a budget an insert
// that exceeds it evicts in insertion order down to it, but never the newest
// entry (the one get is about to lend, and the next λ's shift source).
// Eviction only forgets: Results already lent stay valid, and an evicted key
// is recomputed, as a fresh miss, when next requested. Errors are memoized
// apart from the Results and never evicted: a victim whose announcement
// fails fails identically on every retry. peak, what the gauge reports, is
// sampled after eviction (above budget only when that one entry is) and kept
// across release.
type baselineCache struct {
	g      *topology.Graph
	obs    *obs.Counters
	s      *routing.Scratch // the shard's: misses propagate on it
	m      map[baselineKey]*routing.Result
	failed map[baselineKey]error
	last   baselineKey // the key get returned last: the shift source

	budget      int64 // <= 0: unbounded
	bytes, peak int64
	order       []baselineKey // budgeted mode: keys of m, oldest first
}

type baselineKey struct {
	origin bgp.ASN
	lambda int
}

// ownedBaseline propagates one entry: a package variable only so
// fault-injection tests can force a deterministic failure; production code
// never reassigns it.
var ownedBaseline = routing.PropagateOwned

// newBaselineCache returns an empty cache bound to g whose misses propagate
// on s. It records into the optional counters: hits + misses is the number
// of gets, misses the number of keys propagated (an evicted key counts
// again, a shifted one never).
func newBaselineCache(g *topology.Graph, c *obs.Counters, s *routing.Scratch, budget int64) *baselineCache {
	cc := &baselineCache{g: g, obs: c, s: s, budget: budget}
	cc.release()
	return cc
}

// release drops every entry, memoized errors included; peak is retained.
func (c *baselineCache) release() {
	c.m = make(map[baselineKey]*routing.Result)
	c.failed = make(map[baselineKey]error)
	c.order, c.bytes = nil, 0
}

// install records a computed Result and, under a budget, evicts past it.
func (c *baselineCache) install(key baselineKey, res *routing.Result) {
	c.m[key] = res
	c.bytes += res.MemoryBytes()
	if c.budget > 0 {
		c.order = append(c.order, key)
		for c.bytes > c.budget && len(c.order) > 1 {
			c.bytes -= c.m[c.order[0]].MemoryBytes()
			delete(c.m, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.peak = max(c.peak, c.bytes)
}

// get returns the no-attack baseline for origin announcing with λ = lambda
// uniformly to all neighbors: the resident entry, else the previous get's
// Result shifted when that was this origin's and is still resident (both
// hits — nothing is propagated), else a propagation.
func (c *baselineCache) get(origin bgp.ASN, lambda int) (*routing.Result, error) {
	key := baselineKey{origin, lambda}
	res, err := c.m[key], c.failed[key]
	switch {
	case res != nil || err != nil:
		c.obs.AddBaselineHits(1)
	case c.last.origin == origin && lambda >= 1 && c.m[c.last] != nil:
		c.obs.AddBaselineHits(1)
		res = c.m[c.last].Shifted(lambda - c.last.lambda)
		c.install(key, res)
	default:
		c.obs.AddBaselineMisses(1)
		ann := routing.Announcement{Origin: origin, Prepend: lambda}
		if res, err = ownedBaseline(c.g, ann, c.s); err != nil {
			c.failed[key] = err
			return nil, err
		}
		c.obs.AddBasePropagations(1)
		c.obs.AddRowsDown(c.s.RowsDown())
		c.install(key, res)
	}
	if err == nil {
		c.last = key
	}
	return res, err
}
