package routing

import (
	"errors"
	"fmt"

	"aspp/internal/topology"
)

// nodeRec is one AS's fused candidate state: the customer and peer
// entries plus the epoch stamp that implements O(1) reset. The provider
// entry never lives in the record — both engines' pull-based down phases
// compute it in registers from the providers' final exports — so the
// record is exactly 32 bytes and two records share every cache line.
//
// The candidate entries are live only while gen equals the owning
// Scratch's epoch; any other value reads as "all empty". Each propagation
// bumps the epoch (Scratch.beginPropagation), which invalidates every
// record at once without writing them.
type nodeRec struct {
	cust, peer cand
	gen        uint32
	_          uint32 // pad to 32 bytes: two records per cache line
}

// Scratch is reusable propagation state for the Fast and Delta engines'
// hot paths. A sweep that runs tens of thousands of Propagate/
// PropagateAttackScratch calls allocates the same candidate tables, rejection
// state and result arrays over and over; borrowing them from a Scratch
// instead makes a warmed-up baseline propagation allocation-free (asserted
// by TestPropagateScratchZeroAlloc).
//
// Ownership contract:
//
//   - A Scratch may be used by ONE goroutine at a time. Sweeps give each
//     worker its own Scratch (see parallel.ForEachScratchErr) and reuse it
//     across that worker's whole share of the work.
//   - The *Result returned by PropagateScratch is owned by the Scratch's
//     baseline slot: it stays valid until the next PropagateScratch call
//     on the same Scratch. Likewise PropagateAttackScratch's result lives
//     in the attack slot until the next PropagateAttackScratch call, and
//     PropagateAttackDelta's in the delta slot until the next
//     PropagateAttackDelta call. The three slots are independent, so the
//     usual baseline-then-attack pairing — with either attack engine, or
//     both — works on a single Scratch.
//   - A slot's Result may be rewritten in place by its holder — a sweep
//     shard keeps its baseline in the baseline slot and moves it to another
//     λ with Result.Shift. Every rewrite gives the Result a new version,
//     which is how the delta slot tells a baseline it still mirrors from
//     new rows under the same pointer.
//   - s == nil means a fresh private Scratch: a one-shot call allocates its
//     tables, and the Result it returns belongs to the caller, since no
//     other call shares that Scratch. Held, it keeps those tables alive;
//     a Result from Propagate, written into storage of its own, does not.
//   - Vantage.PathsInto is a baseline-slot call too, but writes only the rows
//     its monitors' paths run through. That partial Result never leaves the
//     package: the call returns spans.
//
// A Scratch adapts itself to whatever topology it is handed; growing to a
// larger graph reallocates once, after which calls are allocation-free
// again. The zero value is ready to use.
type Scratch struct {
	n int // capacity in ASes the tables are sized for

	// recs is the fused per-AS candidate state; epoch is the current
	// propagation's stamp. Starting a propagation bumps epoch instead of
	// clearing recs, so reset is O(1) (see beginPropagation).
	recs  []nodeRec
	epoch uint32

	// reject marks ASes on the attacker's own path (AS-path loop
	// detection). It stays packed — the engines scan and probe it far more
	// often than they write it — and is reset in O(marks) by replaying
	// rejectList instead of clearing n bytes.
	reject     []bool
	rejectList []int32

	// custSet is the Fast engine's phase-1/2 worklist bitset (one bit per
	// AS with a customer route); peerSet is the same for peer routes.
	// Besides driving the phase-1/2 worklist, the pair lets phase 3 decide
	// each AS's selection class from two bit probes — the bitsets stay
	// L1-resident where the record table does not — and 64 ASes per word
	// keeps their reset cheap.
	custSet []uint64
	peerSet []uint64

	// exps holds each AS's final phase-3 export, written sequentially as
	// the descending scan emits it and read by its (lower-indexed)
	// customers — the Fast engine's pull-based down phase. Entries carry
	// their comparison key precomputed (see expCand) and are only read
	// for ASes the scan has already passed, so the table needs no reset
	// at all.
	exps []expCand

	// sibOff and sibProv are the Fast engine's sibling-offer tables (see
	// fastState); only sibling-bearing graphs allocate them.
	sibOff  []sibOffer
	sibProv []expCand

	// dflags holds the Delta engine's per-AS touch, listed and written bits,
	// packed for the same reason; touched lists every AS whose flags are
	// nonzero, so reset is O(cone), not O(n).
	dflags  []uint8
	touched []int32

	// dirty holds the Delta engine's three phase worklists (dirtyCust,
	// dirtyPeer, dirtyProv), one bit per AS. Each phase clears the bits it
	// scans, so they are all zero between calls and need no reset.
	dirty [3][]uint64

	// via is the attack slot's Via storage. viaBase/viaState back
	// ViaSetInto walks (core's pollution counting); viaBase is distinct
	// from via so a baseline via-set can coexist with an attack result.
	// viaSeen lists the entries the last walk wrote — its chain stack while
	// it ran — so the next one resets them in O(visited), not O(n).
	via      []bool
	viaBase  []bool
	viaState []uint8
	viaSeen  []int32

	// deltaVia is the delta slot's Via storage.
	deltaVia []bool

	// deltaBase and deltaVer name the baseline rows the delta slot mirrors
	// outside the previous call's cone. When the next delta call presents
	// the same Result at the same version, setup repairs only the previous
	// cone's rows instead of re-copying the whole baseline (see
	// PropagateAttackDelta). Only compared, never read.
	deltaBase *Result
	deltaVer  uint32

	// quar is PropagateCautious's copy of the caller's quarantine
	// thresholds, which its runs lift and restore in place.
	quar []int16

	// base, atk and delta are the three reusable result slots.
	base, atk, delta Result

	rowsDown int64 // see RowsDown
}

// NewScratch returns an empty Scratch; it sizes itself on first use.
func NewScratch() *Scratch { return &Scratch{} }

// growCap is the shared geometric growth policy: a table asked to cover
// need entries grows to max(need, 2×cur). Exact-fit growth made a sweep
// that alternates topology sizes (n=1000 → 4000 → 2000 → 4000) reallocate
// on every upward step; doubling bounds the reallocations at O(log max-n)
// for any size sequence (pinned by TestScratchGrowthGeometric) — the
// ROADMAP's 80k-AS prerequisite.
func growCap(need, cur int) int {
	if c := 2 * cur; c > need {
		return c
	}
	return need
}

// grow ensures the core tables — the ones every propagation touches —
// cover n ASes, with geometric over-allocation (see growCap). Fresh
// records carry zero gen stamps, which are stale by construction: the
// epoch is always >= 1 once any propagation has started. The list slices
// get matching capacity so replaying them can never allocate.
//
// The remaining tables are grouped by the call path that needs them and
// allocated lazily by the ensure* methods below, so e.g. a baseline-only
// Scratch never pays for attack Via or delta-cone storage.
func (s *Scratch) grow(n int) {
	if n <= s.n {
		return
	}
	n = growCap(n, s.n)
	s.recs = make([]nodeRec, n)
	s.reject = make([]bool, n)
	s.rejectList = make([]int32, 0, n)
	s.custSet = make([]uint64, (n+63)>>6)
	s.peerSet = make([]uint64, (n+63)>>6)
	s.exps = make([]expCand, n)
	s.n = n
}

// siblingTables sizes the sibling-offer tables for g and returns their
// windows: one offer per directed sibling adjacency and one provider-class
// slot per AS.
func (s *Scratch) siblingTables(g *topology.Graph) ([]sibOffer, []expCand) {
	n, m := g.NumASes(), 0
	for _, u := range g.SiblingASes() {
		m += len(g.SiblingsIdx(u))
	}
	if len(s.sibOff) < m {
		s.sibOff = make([]sibOffer, growCap(m, len(s.sibOff)))
	}
	if len(s.sibProv) < n {
		s.sibProv = make([]expCand, growCap(n, len(s.sibProv)))
	}
	return s.sibOff[:m], s.sibProv[:n]
}

// ensureVia sizes the attack slot's Via storage.
func (s *Scratch) ensureVia(n int) {
	if len(s.via) < n {
		s.via = make([]bool, growCap(n, len(s.via)))
	}
}

// ensureViaBufs sizes the ViaSetInto walk buffers. Fresh ones are clean, so
// replaying a visit list that outlived a reallocation undoes nothing.
func (s *Scratch) ensureViaBufs(n int) {
	if len(s.viaBase) < n {
		n = growCap(n, len(s.viaBase))
		s.viaBase = make([]bool, n)
		s.viaState = make([]uint8, n)
		s.viaSeen = make([]int32, 0, n)
	}
}

// ensureDelta sizes the Delta engine's flag table, worklists and Via
// storage. When it reallocates, the fresh dflags are all-zero, so the
// (discarded) touched list has nothing left to undo.
func (s *Scratch) ensureDelta(n int) {
	if len(s.dflags) < n {
		n = growCap(n, len(s.dflags))
		s.dflags = make([]uint8, n)
		s.touched = make([]int32, 0, n)
		s.deltaVia = make([]bool, n)
		for k := range s.dirty {
			s.dirty[k] = make([]uint64, (n+63)>>6)
		}
	}
}

// beginPropagation sizes the tables for n ASes and opens a fresh epoch,
// returning the record window and its stamp. Bumping the epoch invalidates
// every candidate entry from prior propagations in O(1) — no memory is
// written. On uint32 wraparound (once per ~4.3 billion propagations) stale
// stamps could alias the new epoch, so every stamp is hard-cleared and the
// epoch restarts at 1.
func (s *Scratch) beginPropagation(n int) ([]nodeRec, uint32) {
	s.grow(n)
	s.epoch++
	if s.epoch == 0 {
		for i := range s.recs {
			s.recs[i].gen = 0
		}
		s.epoch = 1
	}
	return s.recs[:n], s.epoch
}

// clearRejects undoes the previous attack's loop-rejection marks by
// replaying the mark list — O(path length), not O(n).
func (s *Scratch) clearRejects() {
	for _, i := range s.rejectList {
		s.reject[i] = false
	}
	s.rejectList = s.rejectList[:0]
}

// setReject marks AS index i as loop-rejecting via-routes.
func (s *Scratch) setReject(i int32) {
	if !s.reject[i] {
		s.reject[i] = true
		s.rejectList = append(s.rejectList, i)
	}
}

// clearDeltaFlags undoes the previous delta propagation's flags by
// replaying the touched list — O(cone), not O(n).
func (s *Scratch) clearDeltaFlags() {
	for _, i := range s.touched {
		s.dflags[i] = 0
	}
	s.touched = s.touched[:0]
}

// DeltaCone lists the ASes the last PropagateAttackDelta call on s examined
// (dense indices, in no particular order; empty but never nil after a delta
// call). Every row of that call's result that differs from its baseline is
// listed, and so is every AS that routed via the attacker before the attack
// or does under it: each of the attacker's offers is via-marked and so
// differs from its baseline offer, which puts every AS that ever selected
// one — directly or down the chain — in the cone. Borrowed: valid until the
// next delta call on s.
func (s *Scratch) DeltaCone() []int32 { return s.touched }

// RowsDown is how many result rows phase 3 emitted in the last full-kernel
// propagation on s: the graph's size (per pass, on a sibling graph) for a
// whole-graph call, the monitors' cone for Vantage.PathsInto.
func (s *Scratch) RowsDown() int64 { return s.rowsDown }

// PropagateScratch is Propagate with scratch reuse: candidate tables and
// the returned Result are borrowed from s. With s == nil it runs on a
// fresh private Scratch. See the Scratch ownership contract.
func PropagateScratch(g *topology.Graph, ann Announcement, s *Scratch) (*Result, error) {
	if s == nil {
		s = NewScratch()
	}
	return propagateInto(g, ann, s, &s.base, nil)
}

// propagateInto runs the no-attacker propagation into res: every row, and
// then it counts the reachable ASes once, or with a non-nil rows bitset only
// the rows a Vantage reads (fastState.rows).
func propagateInto(g *topology.Graph, ann Announcement, s *Scratch, res *Result, rows []uint64) (*Result, error) {
	if err := ann.Validate(g); err != nil {
		return nil, err
	}
	var st fastState
	st.init(g, ann, s)
	st.rows = rows
	if _, err := st.run(resultInto(res, g, st.origin), nil); err != nil {
		return nil, err
	}
	if rows == nil {
		res.reach = int32(res.ReachableCount()) + 1
	}
	return res, nil
}

// PropagateAttackScratch computes the stable outcome with the attacker
// active — on the full kernel, for every attack kind. Under AttackASPP
// baseline must be the no-attack Result for the same announcement (a
// cached one shared read-only across goroutines is fine; nil recomputes
// it into the Scratch's baseline slot): it supplies the attacker's own
// route, which the attack cannot change (every bogus route contains the
// attacker's path and is loop-rejected along it), and
// ErrUnreachableAttacker is returned if the attacker never receives the
// route. That is the outcome of an attack launched on the converged
// network. On a sibling-free topology it is the only stable outcome; with
// sibling links a strip can make the route through the attacker attractive
// to an AS on the attacker's own path, and an attacker that strips from
// its first message on may then settle elsewhere or not at all (see
// referenceOnConverged in sibling_diff_test.go). A forged claim does not
// depend on the attacker's own route, so the forged kinds neither read nor
// compute a baseline. The returned Result is borrowed from the Scratch's
// attack slot. With s == nil it runs on a fresh private Scratch.
func PropagateAttackScratch(g *topology.Graph, ann Announcement, atk Attacker, baseline *Result, s *Scratch) (*Result, error) {
	if s == nil {
		s = NewScratch()
	}
	return propagateAttack(g, ann, atk, baseline, nil, s)
}

// PropagateCautious is PropagateAttackScratch under a partial deployment of
// PGBGP-style cautious adoption, the mitigation the paper's §VII cites. quar,
// by dense index, holds each AS's quarantine threshold: the origin copies it
// historically saw on the prefix's routes, 0 for an AS that does not deploy.
// A deployer ranks every route carrying fewer copies below every normal
// route, whatever the class, and adopts one only when it holds no normal
// route. A provider route can then beat a customer route, so the uniqueness
// Gao-Rexford gives is lost: a scenario may have two stable states, and this
// returns one, or none, and then an error. It runs the kernel as an import
// filter — deployers refuse quarantined offers — then lifts the threshold of
// every deployer left without a route and runs again. A lift can change
// routes elsewhere, so a lifted deployer that holds a quarantined route but
// now hears a normal one gets its threshold back, and the runs go on until
// no threshold moves. quar itself is not modified. The returned Result is
// borrowed from s's attack slot.
func PropagateCautious(g *topology.Graph, ann Announcement, atk Attacker, baseline *Result, quar []int16, s *Scratch) (*Result, error) {
	if len(quar) != g.NumASes() {
		return nil, fmt.Errorf("routing: %d quarantine thresholds for %d ASes", len(quar), g.NumASes())
	}
	return propagateAttack(g, ann, atk, baseline, quar, s)
}

// propagateAttack runs an attack into s's attack slot, under the quarantine
// thresholds quar when they are non-nil (see PropagateCautious).
func propagateAttack(g *topology.Graph, ann Announcement, atk Attacker, baseline *Result, quar []int16, s *Scratch) (*Result, error) {
	if err := ann.Validate(g); err != nil {
		return nil, err
	}
	if err := atk.Validate(g, ann); err != nil {
		return nil, err
	}
	atkIdx, _ := g.Index(atk.AS)
	forged := atk.Kind != AttackASPP
	if !forged {
		if baseline == nil {
			var err error
			baseline, err = PropagateScratch(g, ann, s)
			if err != nil {
				return nil, err
			}
		}
		if baseline.Class[atkIdx] == ClassNone {
			return nil, ErrUnreachableAttacker
		}
	}

	var st fastState
	st.init(g, ann, s)
	st.atkIdx = atkIdx
	st.keep = atk.keep()

	if forged {
		// The forged path names only the attacker and the origin, and
		// neither adopts a route: nobody loop-rejects.
		s.clearRejects()
		st.forger = atkIdx
		st.claim = cand{parent: st.origin}
		if atk.Kind == AttackNextHopInterception {
			st.claim.len, st.claim.prep = 1, 1
		}
		st.upward, st.seedUp = st.claim, true
	} else {
		st.aim(cand{len: baseline.Len[atkIdx], prep: baseline.Prep[atkIdx], parent: baseline.Parent[atkIdx]}, baseline.Parent, atk.ViolateValleyFree)
	}

	s.ensureVia(g.NumASes())
	res := resultInto(&s.atk, g, st.origin)
	res.Via = s.via[:g.NumASes()]
	if quar != nil {
		st.quar = append(s.quar[:0], quar...)
		s.quar = st.quar
	}
	// Each run lifts the threshold of every deployer it left without a route
	// and restores it at every lifted deployer that now hears a normal offer
	// while holding a quarantined route. A deployer's fallback can also hand
	// the attacker a route other than its pre-attack one: the attack is then
	// re-aimed at the route it holds. Without thresholds there is one run.
	for runs, settled := 0, false; !settled; runs++ {
		if runs == maxCautiousRuns {
			return nil, errCautiousUnsettled
		}
		if _, err := st.run(res, res.Via); err != nil {
			return nil, err
		}
		settled = true
		for i, q := range st.quar {
			u := int32(i)
			if q > 0 && res.Class[u] == ClassNone {
				st.quar[u], settled = 0, false
			} else if q == 0 && res.Prep[u] < quar[u] && res.Class[u] != ClassNone && st.hearsNormal(res, u, quar[u]) {
				st.quar[u], settled = quar[u], false
			}
		}
		if cur := (cand{len: res.Len[atkIdx], prep: res.Prep[atkIdx], parent: res.Parent[atkIdx]}); quar != nil && !forged && cur != st.upward {
			st.aim(cur, res.Parent, atk.ViolateValleyFree)
			settled = false
		}
	}
	return res, nil
}

// aim points the stripping attack at c, the attacker's own route, whose
// parent chain is in parent. Every route through the attacker carries c's
// path as its suffix, so exactly the ASes on it reject such a route, as real
// BGP loop detection would, and a violating attacker exports c upward. An
// attacker without a route strips nothing.
func (st *fastState) aim(c cand, parent []int32, violate bool) {
	st.s.clearRejects()
	for j := c.parent; j >= 0 && j != st.origin; j = parent[j] {
		st.s.setReject(j)
	}
	st.upward, st.seedUp = c, violate && c.parent >= 0
}

// maxCautiousRuns bounds PropagateCautious's runs: with lifts and restores
// alike, a deployer's threshold can keep flipping where no stable state
// exists, as in BGP itself.
const maxCautiousRuns = 64

var errCautiousUnsettled = errors.New("routing: cautious adoption did not settle")

// hearsNormal reports whether some neighbor exports to u, in res, a route
// carrying at least min origin copies that u would accept: the kernel's
// export rules, read back off res. A peer or customer (k >= 2) exports only
// a customer route, or the violating attacker its own. No such route runs
// through u, whose own carries fewer copies (the count never grows along a
// path), so the only loop to reject is admissible's.
func (st *fastState) hearsNormal(res *Result, u int32, min int16) bool {
	for k, nbrs := range [][]int32{st.g.ProvidersIdx(u), st.g.SiblingsIdx(u), st.g.PeersIdx(u), st.g.CustomersIdx(u)} {
		for _, j := range nbrs {
			c := cand{len: res.Len[j], prep: res.Prep[j], parent: res.Parent[j], via: res.Via[j]}
			switch {
			case j == st.origin:
				c, _ = st.originSeed(u) // λ 0 carries no copies
			case j == st.forger:
				c = st.export(j, st.claim)
			case res.Class[j] == ClassNone, k >= 2 && res.Class[j] != ClassCustomer && !(j == st.atkIdx && st.seedUp):
				continue
			default:
				c = st.export(j, c)
			}
			if c.prep >= min && st.admissible(u, c) {
				return true
			}
		}
	}
	return false
}
