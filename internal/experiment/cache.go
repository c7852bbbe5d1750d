package experiment

import (
	"fmt"
	"slices"

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
// that exceeds it evicts in insertion order down to it, but never the keep
// newest entries (the warm window's lane width — evicting those would
// thrash the window mid-use). Eviction only forgets: Results already lent
// stay valid, and an evicted key is recomputed, as a fresh miss, when next
// requested. Errors are memoized apart from the Results and never evicted:
// a victim whose announcement fails fails identically on every retry. peak,
// what the gauge reports, is sampled after eviction (above budget only when
// the keep floor alone is) and kept across release.
type baselineCache struct {
	g      *topology.Graph
	obs    *obs.Counters
	s      *routing.Scratch // the shard's: misses propagate on it
	m      map[baselineKey]*routing.Result
	failed map[baselineKey]error
	last   baselineKey // the key get returned last: the shift source

	budget      int64 // <= 0: unbounded
	keep        int
	bytes, peak int64
	order       []baselineKey // budgeted mode: keys of m, oldest first
}

type baselineKey struct {
	origin bgp.ASN
	lambda int
}

// ownedBaseline propagates one entry and batchBaseline one warm window:
// package variables only so fault-injection tests can force a deterministic
// failure; production code never reassigns them.
var (
	ownedBaseline = routing.PropagateOwned
	batchBaseline = routing.PropagateBatch
)

// newBaselineCache returns an empty cache bound to g whose misses propagate
// on s. It records into the optional counters: hits + misses is the number
// of gets, misses the number of keys propagated (an evicted key counts
// again, a shifted one never).
func newBaselineCache(g *topology.Graph, c *obs.Counters, s *routing.Scratch, budget int64, keep int) *baselineCache {
	cc := &baselineCache{g: g, obs: c, s: s, budget: budget, keep: max(keep, 1)}
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
		for c.bytes > c.budget && len(c.order) > c.keep {
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

// warm computes the keys not yet present as lanes of one batched
// propagation and installs them, so the gets that follow hit. Each new key
// counts as one miss and its lane toward prop_batch rather than prop_base;
// a key that follows another λ of its origin gets no lane — the get that
// comes for it, right after that λ's, shifts it. A batch lane is
// bitwise-equal to the serial engine, so a warmed entry is
// indistinguishable from a get-computed one; sibling topologies, which the
// batch engine refuses, warm through get. A key that fails validation
// poisons only itself, as in get; only an engine failure is returned.
func (c *baselineCache) warm(keys []baselineKey, bs *routing.BatchScratch) error {
	if c.g.HasSiblings() {
		for _, k := range keys {
			c.get(k.origin, k.lambda) // errors memoized per key
		}
		return nil
	}
	var lanes []routing.Announcement
	var queued []baselineKey // lanes' keys: a repeated key is one lane
	for i, k := range keys {
		if c.m[k] != nil || c.failed[k] != nil || slices.Contains(queued, k) {
			continue
		}
		if i > 0 && keys[i-1].origin == k.origin {
			continue
		}
		c.obs.AddBaselineMisses(1)
		ann := routing.Announcement{Origin: k.origin, Prepend: k.lambda}
		if err := ann.Validate(c.g); err != nil {
			c.failed[k] = err
			continue
		}
		lanes, queued = append(lanes, ann), append(queued, k)
	}
	if len(lanes) == 0 {
		return nil
	}
	br, err := batchBaseline(c.g, lanes, bs)
	if err != nil {
		return fmt.Errorf("experiment: warm batch: %w", err)
	}
	for i, lane := range br.Lanes {
		c.install(queued[i], lane.Clone())
	}
	c.obs.AddBatchPropagations(int64(len(lanes)))
	c.obs.AddBatchCalls(1)
	return nil
}
