package experiment

import (
	"fmt"
	"sync"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// BaselineCache memoizes no-attack baseline propagations keyed by
// (origin, λ). The sweep drivers draw many attacker/victim pairs from a
// small pool, so the same victim announcement is re-propagated over and
// over; the cache computes each baseline exactly once and shares the
// Result read-only across workers.
//
// Invalidation rule: there is none. A cache is bound to one immutable
// Graph for its whole lifetime — entries can never go stale because
// neither the topology nor an entry's (origin, λ) announcement can
// change. Never reuse a cache across graphs; build a new one per sweep
// (they are cheap: an empty map).
//
// The cached Results are shared: callers must treat them as read-only and
// must not attach them to anything that mutates them (attack propagation
// writes only to its own result slot, so SimulateWithBaseline and
// SimulateScratch are safe consumers).
//
// Only plain scenarios are cacheable: the key cannot represent
// per-neighbor prepending or withheld sessions, so callers with such
// scenarios must bypass the cache (pass a nil baseline downstream).
type BaselineCache struct {
	g   *topology.Graph
	obs *obs.Counters
	mu  sync.Mutex
	m   map[baselineKey]*baselineEntry

	// Byte accounting (DESIGN §5f). The cache always tracks the bytes of
	// successfully installed Results. budget == 0 means unbounded; in
	// budgeted mode order records insertion order and an insert that
	// exceeds budget evicts FIFO down to it, always retaining at least
	// the keep newest entries (the warm group's lane width — evicting
	// those would thrash the group mid-use). Eviction deletes the map
	// entry only: outstanding *Result pointers held by callers stay valid
	// (a Result is immutable), the victim is merely recomputed — and
	// re-counted as a miss — if requested again. peak is the
	// high-watermark the cache_bytes gauge reports; it survives Release.
	//
	// A budgeted cache is meant for single-goroutine (shard-local) use:
	// the accounting assumes the goroutine that creates an entry is the
	// one that computes it.
	budget int64
	keep   int
	bytes  int64
	peak   int64
	order  []baselineKey
}

// baselineOnly computes one cache entry. It is a package variable only so
// fault-injection tests can force a deterministic per-victim baseline
// failure; production code never reassigns it.
var baselineOnly = core.BaselineOnly

// batchBaseline computes a WarmBatch lane group; a package variable for
// the same fault-injection reason as baselineOnly.
var batchBaseline = routing.PropagateBatch

type baselineKey struct {
	origin bgp.ASN
	lambda int
}

// BaselineKey names one cacheable baseline — a uniform (origin, λ)
// announcement — for batched warming via WarmBatch.
type BaselineKey struct {
	Origin bgp.ASN
	Lambda int
}

type baselineEntry struct {
	once sync.Once
	res  *routing.Result
	err  error
}

// NewBaselineCache returns an empty cache bound to g, recording cache
// hits/misses and baseline propagations into the optional counters (nil
// disables recording). A miss is the Get that creates an entry; concurrent
// Gets for the same key that arrive while the single computation runs
// count as hits, so hits+misses always equals the number of Get calls and
// misses equals the number of distinct keys — both deterministic.
//
// budget > 0 makes the cache byte-budgeted for shard-local use: once the
// installed Results exceed budget bytes the oldest entries are evicted
// FIFO, always retaining at least the keep newest (keep is clamped to
// >= 1). budget <= 0 means unbounded, and keep is ignored.
func NewBaselineCache(g *topology.Graph, c *obs.Counters, budget int64, keep int) *BaselineCache {
	cc := &BaselineCache{g: g, obs: c, m: make(map[baselineKey]*baselineEntry)}
	if budget > 0 {
		cc.budget, cc.keep = budget, max(keep, 1)
	}
	return cc
}

// account records one successfully installed Result — always, so the
// cache_bytes gauge reads on every sweep — and, under a budget, evicts
// FIFO past it. Error entries are never accounted (they hold no Result)
// and therefore never evicted — a poisoned key stays poisoned.
func (c *BaselineCache) account(key baselineKey, res *routing.Result) {
	c.mu.Lock()
	c.bytes += res.MemoryBytes()
	if c.budget > 0 {
		c.order = append(c.order, key)
		for c.bytes > c.budget && len(c.order) > c.keep {
			old := c.order[0]
			c.order = c.order[1:]
			if e := c.m[old]; e != nil && e.res != nil {
				c.bytes -= e.res.MemoryBytes()
				delete(c.m, old)
			}
		}
	}
	// Peak is sampled post-eviction: the resident footprint the budget
	// governs, not the transient insert overshoot. It exceeds budget only
	// when the keep floor alone does.
	if c.bytes > c.peak {
		c.peak = c.bytes
	}
	c.mu.Unlock()
}

// Bytes reports the bytes currently held by installed Results.
func (c *BaselineCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// PeakBytes reports the high-watermark of Bytes over the cache's
// lifetime — the value the cache_bytes gauge records. It survives
// Release so a shard can be audited after its cache is dropped.
func (c *BaselineCache) PeakBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

// Release drops every entry, returning the cache to empty (the
// release-after-shard lifecycle). PeakBytes is retained.
func (c *BaselineCache) Release() {
	c.mu.Lock()
	c.m = make(map[baselineKey]*baselineEntry)
	c.order = nil
	c.bytes = 0
	c.mu.Unlock()
}

// Get returns the no-attack baseline for origin announcing with λ = lambda
// uniformly to all neighbors, computing it on first request. Concurrent
// callers for the same key block until the single computation finishes and
// then share one Result. Errors are memoized too: a victim whose
// announcement fails to validate fails identically on every retry.
func (c *BaselineCache) Get(origin bgp.ASN, lambda int) (*routing.Result, error) {
	key := baselineKey{origin: origin, lambda: lambda}
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &baselineEntry{}
		c.m[key] = e
		c.obs.AddBaselineMisses(1)
	} else {
		c.obs.AddBaselineHits(1)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.res, e.err = baselineOnly(c.g, core.Scenario{
			Victim:  origin,
			Prepend: lambda,
			// Attacker is irrelevant to the baseline; left zero.
		})
		if e.err == nil {
			c.obs.AddBasePropagations(1)
			c.account(key, e.res)
		}
	})
	return e.res, e.err
}

// WarmBatch precomputes the baselines for the given keys as lanes of one
// batched propagation (routing.PropagateBatch), installing each result
// into the cache so subsequent Gets hit. Keys already present — cached or
// mid-computation — are skipped; duplicates within keys collapse to one
// lane. Each created entry counts as one cache miss (so misses still
// equals distinct keys) and its lane counts toward prop_batch rather than
// prop_base.
//
// Equivalence: a batch lane is bitwise-equal to the serial engine, so a
// warmed entry is indistinguishable from one computed by Get. Sibling
// topologies, which the batch engine refuses, warm through the serial Get
// path — the full kernel — instead. A key whose announcement fails
// validation gets the error memoized, exactly as Get would. Errors of
// individual keys never abort the warm; only a batch-level engine failure
// is returned, and in that case the created entries stay lazily
// computable — the next Get on one falls back to the serial path.
//
// bs may be nil (PropagateBatch then uses private scratch); like the
// cache's Gets, WarmBatch is safe for concurrent use, but a BatchScratch
// must not be shared across concurrent calls.
func (c *BaselineCache) WarmBatch(keys []BaselineKey, bs *routing.BatchScratch) error {
	if len(keys) == 0 {
		return nil
	}
	if c.g.HasSiblings() {
		for _, k := range keys {
			c.Get(k.Origin, k.Lambda) // errors memoized per entry
		}
		return nil
	}
	anns := make([]routing.Announcement, 0, len(keys))
	created := make([]*baselineEntry, 0, len(keys))
	c.mu.Lock()
	for _, k := range keys {
		key := baselineKey{origin: k.Origin, lambda: k.Lambda}
		if c.m[key] != nil {
			continue
		}
		e := &baselineEntry{}
		c.m[key] = e
		c.obs.AddBaselineMisses(1)
		anns = append(anns, routing.Announcement{Origin: k.Origin, Prepend: k.Lambda})
		created = append(created, e)
	}
	c.mu.Unlock()
	// Validate per key so one bad origin poisons only its own entry, not
	// the whole lane group (PropagateBatch fails the batch wholesale).
	lanes := anns[:0]
	live := created[:0]
	for i, ann := range anns {
		if err := ann.Validate(c.g); err != nil {
			e := created[i]
			e.once.Do(func() { e.err = err })
			continue
		}
		lanes = append(lanes, ann)
		live = append(live, created[i])
	}
	if len(lanes) == 0 {
		return nil
	}
	br, err := batchBaseline(c.g, lanes, bs)
	if err != nil {
		return fmt.Errorf("experiment: warm batch: %w", err)
	}
	for i, lane := range br.Lanes {
		e, key := live[i], baselineKey{origin: lanes[i].Origin, lambda: lanes[i].Prepend}
		e.once.Do(func() {
			e.res = lane.Clone()
			c.account(key, e.res)
		})
	}
	c.obs.AddBatchPropagations(int64(len(lanes)))
	c.obs.AddBatchCalls(1)
	return nil
}

// Len reports how many distinct baselines have been requested.
func (c *BaselineCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
