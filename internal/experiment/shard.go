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
// which partitions them into shards, one per worker, so each victim lives
// in exactly one shard, gives each shard persistent scratch state, and
// dispatches shards across the worker pool with parallel.ForEachErr.
// Results are written index-addressed into leg-order storage, so the merged
// output — and therefore the TSV — is byte-identical at every shard count
// (pinned by the shard-count invariance differential).
//
// A shard runs its legs sorted by (victim, λ), so it only ever needs the
// baseline of the victim it is on, and that baseline lives in its Scratch's
// baseline slot: propagated there on a new victim, shifted there in place
// on a new λ. One Result (≈0.9 MB at n ≈ 80k) is all the baseline memory a
// shard holds, and after warm-up a shard allocates none. One sweep's
// resident set ≈ CSR graph (shared read-only) + shards × scratch. The
// scratch_bytes gauge records the largest shard's Scratch, cache_bytes the
// largest baseline slot inside it.
//
// Error contract (DESIGN §6): within a shard, legs run in deterministic
// order and the first failure aborts the shard; across shards ForEachErr
// returns the lowest-SHARD-INDEX error — deterministic under any
// scheduling. Cancellation is checked before every leg, so a shard
// abandons mid-work.

// legOptions is everything a driver tells the runner besides the legs.
type legOptions struct {
	what     string // names the sweep in errors ("pair sweep")
	workers  int    // also the shard count; <= 0: GOMAXPROCS (only PairConfig sets it)
	counters *obs.Counters
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

// shardState is one shard's private, persistent working state: the
// Scratch that runs the shard's legs and holds, in its baseline slot, the
// baseline of the victim the shard is on — every propagation of a sweep
// runs on state the scratch_bytes gauge counts. Single-goroutine by
// construction — ForEachErr hands each shard index to exactly one worker,
// and successive runs reusing the state are ordered by the fan-out's
// completion barrier.
type shardState struct {
	s *routing.Scratch
	// base is the baseline for origin announcing λ = lambda uniformly to
	// all neighbours; origin 0 (no AS) means the shard holds none, before
	// the first leg or after a failed propagation. It is lent read-only to
	// the shard's legs and kept until the shard meets another victim, also
	// across drain rounds.
	base   *routing.Result
	origin bgp.ASN
	lambda int
	im     core.Impact // the current leg, lent to the visitor
}

// legRunner is one sweep's shard states plus the options they run under.
type legRunner struct {
	g      *topology.Graph
	o      legOptions
	shards []*shardState
}

// newLegRunner builds the shard states for a sweep over g, one per worker
// (one shard would serialize the sweep, more only re-propagate victims).
// Every leg runs on the engine core.SimulateScratch picks.
func newLegRunner(g *topology.Graph, o legOptions) *legRunner {
	n := o.workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	r := &legRunner{g: g, o: o, shards: make([]*shardState, n)}
	for i := range r.shards {
		r.shards[i] = &shardState{s: routing.NewScratch()}
	}
	o.counters.RecordCSRBytes(g.MemoryBytes())
	return r
}

// propagateBaseline propagates one baseline into the Scratch's baseline
// slot: a package variable only so fault-injection tests can force a
// deterministic failure; production code never reassigns it.
var propagateBaseline = routing.PropagateScratch

// baseline returns st's no-attack baseline for origin at λ = lambda. Another
// λ of the origin the shard holds is that baseline shifted in place
// (routing.Result.Shift) — the origin's padding changes no AS's choice, so
// it needs no propagation — and the same λ is the baseline as it is: both
// are hits. Another origin is a propagation into the shard Scratch's
// baseline slot (a miss), which replaces the held baseline. hits + misses is
// the number of calls, misses the number of propagations attempted.
func (r *legRunner) baseline(st *shardState, origin bgp.ASN, lambda int) (*routing.Result, error) {
	c := r.o.counters
	if origin != 0 && st.origin == origin && lambda >= 1 {
		c.AddBaselineHits(1)
		st.base.Shift(lambda - st.lambda)
	} else {
		c.AddBaselineMisses(1)
		st.origin = 0
		res, err := propagateBaseline(r.g, routing.Announcement{Origin: origin, Prepend: lambda}, st.s)
		if err != nil {
			return nil, err
		}
		c.AddBasePropagations(1)
		c.AddRowsDown(st.s.RowsDown())
		st.base = res
	}
	st.origin, st.lambda = origin, lambda
	return st.base, nil
}

// run simulates legs and returns their pollution counts in leg order;
// done[i] is false for a leg skipped because its attacker never receives
// the route, or rejected by the optional visitor. Each shard samples its
// memory into the counters when it completes — a deterministic point, so
// the reported gauges do not depend on scheduling.
func (r *legRunner) run(ctx context.Context, legs []core.Scenario, visit legVisitor) (counts []core.Counts, done []bool, err error) {
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
		if st.origin != 0 {
			r.o.counters.RecordCacheBytes(st.base.MemoryBytes())
		}
		r.o.counters.RecordScratchBytes(st.s.MemoryBytes())
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
// them — each shard still holding the baseline it ended the last round on —
// and hands every usable leg's counts to take, in leg order; a leg whose
// attacker never receives the route, or that the optional visitor rejects,
// is skipped, for next to replace from further down the stream. It stops
// when next submits nothing.
func (r *legRunner) drain(ctx context.Context, next func() []core.Scenario, visit legVisitor, take func(i int, c core.Counts)) error {
	for legs := next(); len(legs) > 0; legs = next() {
		counts, done, err := r.run(ctx, legs, visit)
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
func EffectiveAttacks[T any](ctx context.Context, g *topology.Graph, stream []core.Scenario, want int, counters *obs.Counters, eval func(im *core.Impact) T) ([]T, error) {
	r := newLegRunner(g, legOptions{what: "attack draw", counters: counters})
	return firstEffective(ctx, r, stream, want, func(_ int, im *core.Impact) T { return eval(im) })
}

// runShard runs one shard's share of the legs, sorted by (victim, λ) — so
// a run propagates each victim at most once and its other λ are shifts —
// checking ctx before each: resolve the leg's baseline, skip an ASPP
// attacker the route never reaches (a forged claim needs no route),
// simulate.
func (r *legRunner) runShard(ctx context.Context, si int, legs []core.Scenario, idx []int, counts []core.Counts, done []bool, visit legVisitor) error {
	st := r.shards[si]
	sort.SliceStable(idx, func(a, b int) bool {
		la, lb := legs[idx[a]], legs[idx[b]]
		if la.Victim != lb.Victim {
			return la.Victim < lb.Victim
		}
		return la.Prepend < lb.Prepend
	})
	for _, i := range idx {
		if err := ctx.Err(); err != nil {
			return err
		}
		sc := legs[i]
		base, err := r.baseline(st, sc.Victim, sc.Prepend)
		if err != nil {
			// Fatal: the failure is per-victim — it would repeat for every
			// leg sharing this baseline.
			return baselineError(sc.Victim, sc.Prepend, err)
		}
		if sc.Type == core.AttackASPP && !base.Reachable(sc.Attacker) {
			if r.o.allFatal {
				return fmt.Errorf("%v: %w", sc, core.ErrAttackerSeesNoRoute)
			}
			r.o.counters.AddSkippedUnreachable(1)
			continue
		}
		if st.im, err = core.SimulateScratch(r.g, sc, base, st.s, r.o.counters); err != nil {
			return fmt.Errorf("%v: %w", sc, err)
		}
		counts[i], done[i] = st.im.Counts, visit == nil || visit(si, i, &st.im)
	}
	return nil
}
