package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/parallel"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// The leg runner (DESIGN §5f): the one sweep path. Every attack-leg driver
// — pair sweeps, λ sweeps, the tier matrix, the sibling sweep — generates
// legs (one core.Scenario per result slot) and hands them to a legRunner,
// which partitions them into shards so each (victim, λ) baseline lives in
// exactly one shard, gives each shard a private byte-budgeted
// baselineCache plus persistent scratch state, and dispatches shards
// across the worker pool with parallel.ForEachErr. Results are written
// index-addressed into leg-order storage, so the merged output — and
// therefore the TSV — is byte-identical at every shard count (pinned by
// the shard-count invariance differential).
//
// At Internet scale (n ≈ 80k) the sweep working set, not propagation
// speed, is the binding constraint: one ~0.9 MB Result per distinct
// (victim, λ). One sweep's resident set ≈ CSR graph (shared read-only) +
// shards × (cache + scratch); MemBudget caps the cache term. The
// cache_bytes gauge records the largest single shard's cache peak,
// scratch_bytes the largest shard's scratch state. The scale-smoke gate
// asserts cache_bytes <= MemBudget.
//
// Error contract (DESIGN §6): within a shard, legs run in deterministic
// order and the first failure aborts the shard; across shards ForEachErr
// returns the lowest-SHARD-INDEX error — deterministic under any
// scheduling. Cancellation is checked between lane windows, so a shard
// abandons mid-work.

// legOptions is everything a driver tells the runner besides the legs.
type legOptions struct {
	what      string // names the sweep in errors ("pair sweep")
	batch     int
	shards    int
	memBudget int64
	workers   int
	counters  *obs.Counters
	// allFatal marks a fixed-pair sweep with nothing to redraw: an
	// unreachable attacker fails the sweep instead of skipping the leg,
	// and legs are partitioned into contiguous index blocks (shard 0 the
	// lowest), so the lowest-shard error is the lowest-leg error.
	// Otherwise legs partition by victim hash and unreachable attackers
	// are skipped and counted.
	allFatal bool
}

// legVisitor is how a driver reads more off a leg than its counts (monitor
// paths, the pollution set) without retaining it: it sees leg i of the run
// on the goroutine of the shard that simulated it, and says whether the leg
// is usable (a rejected leg reads as not done, like a skipped one). The
// Impact is borrowed from the shard's Scratch — valid until the visitor
// returns, copy what you keep. Shards visit concurrently: shared state is
// indexed by shard or by leg.
type legVisitor func(shard, i int, im *core.Impact) bool

// normalizeShards resolves the (Shards, MemBudget, Workers) configuration
// triple to a shard count: an explicit Shards > 0 stands; MemBudget alone
// implies one budgeted shard; otherwise one shard per effective worker —
// one shard would serialize the sweep, more only split the caches further.
func normalizeShards(shards int, memBudget int64, workers int) (int, error) {
	if shards < 0 {
		return 0, fmt.Errorf("experiment: shards must be >= 0, got %d", shards)
	}
	if memBudget < 0 {
		return 0, fmt.Errorf("experiment: mem budget must be >= 0, got %d", memBudget)
	}
	switch {
	case shards > 0:
		return shards, nil
	case memBudget > 0:
		return 1, nil
	case workers > 0:
		return workers, nil
	}
	return runtime.GOMAXPROCS(0), nil
}

// shardOf assigns a victim to a shard by FNV-1a hash — stable across
// runs, independent of draw order, and spreading the hot tier-1 victims
// instead of clustering them the way a range split would.
func shardOf(v bgp.ASN, nShards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	x := uint32(v)
	for s := 0; s < 32; s += 8 {
		h = (h ^ uint64(byte(x>>s))) * prime64
	}
	return int(h % uint64(nShards))
}

// shardState is one shard's private, persistent working state: a
// byte-budgeted baseline cache and a DeltaBatchRunner whose BatchScratch
// doubles as the warm scratch and whose Scratch runs the serial-engine
// legs and the cache's misses — every propagation of a sweep runs on state
// the scratch_bytes gauge counts. Single-goroutine by construction —
// ForEachErr hands each shard index to exactly one worker, and successive
// runs reusing the state are ordered by the fan-out's completion barrier.
type shardState struct {
	cache  *baselineCache
	runner *core.DeltaBatchRunner

	im    core.Impact // the current serial leg, lent to the visitor
	warm  []baselineKey
	scs   []core.Scenario
	bases []*routing.Result
	idxs  []int
	outs  []core.Counts
}

// legRunner is one sweep's shard states plus the options they run under.
type legRunner struct {
	g       *topology.Graph
	o       legOptions
	kEff    int  // attack-leg lane width / warm window size
	batched bool // attack legs ride the batched delta engine
	shards  []*shardState
}

// newLegRunner builds the shard states for a sweep over g. The lane width
// is min(batch, AdaptiveLaneWidthBudget): with a byte budget the lanes
// narrow so the lane tables plus the warm window's pinned baselines fit
// it; without one the configured batch width stands. Lane width never
// changes sweep output — only grouping. Attack legs batch when the width
// allows it, except on sibling-bearing topologies (the lane engines refuse
// them), forged-claim legs and runs with a visitor (the lanes keep no
// Impact to lend); serial legs run on the engine core.SimulateScratch picks.
func newLegRunner(g *topology.Graph, o legOptions) (*legRunner, error) {
	nShards, err := normalizeShards(o.shards, o.memBudget, o.workers)
	if err != nil {
		return nil, err
	}
	kEff := max(o.batch, 1)
	if o.memBudget > 0 && kEff > 1 {
		kEff = max(min(kEff, routing.AdaptiveLaneWidthBudget(g.NumASes(), o.memBudget)), 1)
	}
	r := &legRunner{
		g: g, o: o, kEff: kEff,
		batched: o.batch > 1 && !g.HasSiblings(),
		shards:  make([]*shardState, nShards),
	}
	for i := range r.shards {
		runner := core.NewDeltaBatchRunner()
		r.shards[i] = &shardState{
			cache:  newBaselineCache(g, o.counters, runner.S, o.memBudget, kEff),
			runner: runner,
		}
	}
	o.counters.RecordCSRBytes(g.MemoryBytes())
	return r, nil
}

// run simulates legs and returns their pollution counts in leg order;
// done[i] is false for a leg skipped because its attacker never receives
// the route, or rejected by the optional visitor. Each shard samples its
// memory high-watermarks into the counters when it completes — a
// deterministic point, so the reported gauges do not depend on scheduling —
// and then releases its cache, unless keepWarm says another run over
// overlapping victims follows.
func (r *legRunner) run(ctx context.Context, legs []core.Scenario, keepWarm bool, visit legVisitor) (counts []core.Counts, done []bool, err error) {
	counts = make([]core.Counts, len(legs))
	done = make([]bool, len(legs))
	perShard := make([][]int, len(r.shards))
	for i, sc := range legs {
		si := shardOf(sc.Victim, len(r.shards))
		if r.o.allFatal {
			si = i * len(r.shards) / len(legs) // contiguous blocks
		}
		perShard[si] = append(perShard[si], i)
	}
	err = parallel.ForEachErr(ctx, len(r.shards), r.o.workers, func(si int) error {
		st := r.shards[si]
		serr := r.runShard(ctx, si, legs, perShard[si], counts, done, visit)
		r.o.counters.RecordCacheBytes(st.cache.peak)
		r.o.counters.RecordScratchBytes(st.runner.BS.MemoryBytes() + st.runner.S.MemoryBytes())
		if !keepWarm {
			st.cache.release()
		}
		return serr
	})
	if err != nil {
		return nil, nil, sweepError(r.o.what, err)
	}
	return counts, done, nil
}

// drain is the package's one oversample-and-stop loop (DESIGN §5f: draw the
// stream up front, simulate only until the quota is met). Each round it
// asks next for the candidates the caller's quota still needs, simulates
// them with the shard caches kept warm — later rounds redraw over the same
// victims — and hands every usable leg's counts to take, in leg order; a
// leg whose attacker never receives the route, or that the optional visitor
// rejects, is skipped, for next to replace from further down the stream. It
// stops when next submits nothing.
func (r *legRunner) drain(ctx context.Context, next func() []core.Scenario, visit legVisitor, take func(i int, c core.Counts)) error {
	for legs := next(); len(legs) > 0; legs = next() {
		counts, done, err := r.run(ctx, legs, true, visit)
		if err != nil {
			return err
		}
		for i := range legs {
			if done[i] {
				take(i, counts[i])
			}
		}
	}
	return nil
}

// firstEffective is drain for the drivers that want the first `want`
// effective attacks of a candidate stream (detection, compare, defense): an
// attack that captures no one is unobservable and would only dilute a
// detection denominator, so it is skipped and counted like an unreachable
// attacker. eval sees each effective leg as its shard simulates it; what it
// returns comes back in draw order, whatever the shard interleaving. The
// stream's length is the retry budget; under want/2 effective attacks
// within it is an error.
func firstEffective[T any](ctx context.Context, r *legRunner, stream []core.Scenario, want int, eval func(shard int, im *core.Impact) T) ([]T, error) {
	byPos := make([]T, len(stream)) // written by the shards, one slot per candidate
	usable := make([]T, 0, want)
	start, end := 0, 0 // the current round is stream[start:end]
	err := r.drain(ctx, func() []core.Scenario {
		start, end = end, min(end+want-len(usable), len(stream))
		return stream[start:end]
	}, func(shard, i int, im *core.Impact) bool {
		if !im.Effective() {
			r.o.counters.AddSkippedIneffective(1)
			return false
		}
		byPos[start+i] = eval(shard, im)
		return true
	}, func(i int, _ core.Counts) {
		usable = append(usable, byPos[start+i])
	})
	if err != nil {
		return nil, err
	}
	if len(usable) < want/2 {
		return nil, fmt.Errorf("experiment: %s: only %d usable attacks", r.o.what, len(usable))
	}
	return usable, nil
}

// EffectiveAttacks is firstEffective for drivers outside the package
// (defense), on a runner of its own: stream's candidates are simulated in
// order until want are effective, never further. eval sees each one's
// borrowed Impact (valid until eval returns; copy what you keep) and may
// run concurrently with itself.
func EffectiveAttacks[T any](ctx context.Context, g *topology.Graph, stream []core.Scenario, want, workers int, counters *obs.Counters, eval func(im *core.Impact) T) ([]T, error) {
	r, err := newLegRunner(g, legOptions{what: "attack draw", workers: workers, counters: counters})
	if err != nil {
		return nil, err
	}
	return firstEffective(ctx, r, stream, want, func(_ int, im *core.Impact) T { return eval(im) })
}

// runShard runs one shard's share of the legs. They are grouped by
// (victim, λ) — the FIFO cache then evicts a baseline only after all its
// legs ran, and lane groups share baselines maximally — and processed in
// windows of kEff, which bounds the pinned working set: warm the window's
// baselines, resolve them and pre-filter ASPP attackers the route never
// reaches (a forged claim needs no route), run the legs (serially, or as
// the lanes of one batched delta call).
func (r *legRunner) runShard(ctx context.Context, si int, legs []core.Scenario, idx []int, counts []core.Counts, done []bool, visit legVisitor) error {
	st := r.shards[si]
	lanes := r.batched && visit == nil
	sort.SliceStable(idx, func(a, b int) bool {
		la, lb := legs[idx[a]], legs[idx[b]]
		if la.Victim != lb.Victim {
			return la.Victim < lb.Victim
		}
		return la.Prepend < lb.Prepend
	})
	for lo := 0; lo < len(idx); lo += r.kEff {
		window := idx[lo:min(lo+r.kEff, len(idx))]
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.o.batch > 1 {
			st.warm = st.warm[:0]
			for _, i := range window {
				st.warm = append(st.warm, baselineKey{legs[i].Victim, legs[i].Prepend})
			}
			if err := st.cache.warm(st.warm, st.runner.BS); err != nil {
				return err
			}
		}
		st.scs, st.bases, st.idxs = st.scs[:0], st.bases[:0], st.idxs[:0]
		for _, i := range window {
			sc := legs[i]
			base, err := st.cache.get(sc.Victim, sc.Prepend)
			if err != nil {
				// Fatal: the failure is per-victim and memoized — it would
				// repeat for every leg sharing this baseline.
				return baselineError(sc.Victim, sc.Prepend, err)
			}
			if sc.Type == core.AttackASPP && !base.Reachable(sc.Attacker) {
				if r.o.allFatal {
					return fmt.Errorf("%v: %w", sc, core.ErrAttackerSeesNoRoute)
				}
				r.o.counters.AddSkippedUnreachable(1)
				continue
			}
			if lanes && sc.Type == core.AttackASPP {
				st.scs = append(st.scs, sc)
				st.bases = append(st.bases, base)
				st.idxs = append(st.idxs, i)
				continue
			}
			if st.im, err = core.SimulateScratch(r.g, sc, base, st.runner.S, r.o.counters); err != nil {
				return fmt.Errorf("%v: %w", sc, err)
			}
			counts[i], done[i] = st.im.Counts, visit == nil || visit(si, i, &st.im)
		}
		// A window holds at most kEff legs, so the baselines one batched
		// call pins never exceed one lane group.
		if cap(st.outs) < len(st.scs) {
			st.outs = make([]core.Counts, len(st.scs))
		}
		outs := st.outs[:len(st.scs)]
		if err := st.runner.Simulate(r.g, st.scs, st.bases, outs, r.o.counters); err != nil {
			return err
		}
		for j, i := range st.idxs {
			counts[i], done[i] = outs[j], true
		}
	}
	return nil
}
