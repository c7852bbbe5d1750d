package routing

import (
	"errors"
	"math/rand"
	"testing"

	"aspp/internal/topology"
)

// Sinks keep the compiler from eliding the propagation calls inside
// testing.AllocsPerRun closures.
var (
	allocSinkResult *Result
	allocSinkErr    error
)

// TestPropagateScratchZeroAlloc pins the allocation-free contract from the
// Scratch doc comment: once a Scratch has been warmed on a graph, repeated
// propagations — baseline and attack — must not touch the heap at all.
func TestPropagateScratchZeroAlloc(t *testing.T) {
	cfg := topology.DefaultGenConfig(800)
	cfg.Seed = 13
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim, attacker := g.Tier1s()[0], g.Tier1s()[1]
	ann := Announcement{Origin: victim, Prepend: 3}
	atk := Attacker{AS: attacker}

	s := NewScratch()
	base, err := PropagateScratch(g, ann, s) // warm every buffer once
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PropagateAttackScratch(g, ann, atk, base, s); err != nil {
		t.Fatal(err)
	}

	if avg := testing.AllocsPerRun(20, func() {
		allocSinkResult, allocSinkErr = PropagateScratch(g, ann, s)
	}); avg != 0 {
		t.Errorf("warmed PropagateScratch allocates %.1f objects per run, want 0", avg)
	}
	if allocSinkErr != nil {
		t.Fatal(allocSinkErr)
	}
	base = allocSinkResult

	if avg := testing.AllocsPerRun(20, func() {
		allocSinkResult, allocSinkErr = PropagateAttackScratch(g, ann, atk, base, s)
	}); avg != 0 {
		t.Errorf("warmed PropagateAttackScratch allocates %.1f objects per run, want 0", avg)
	}
	if allocSinkErr != nil {
		t.Fatal(allocSinkErr)
	}

	if _, err := PropagateAttackDelta(g, ann, atk, base, s); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		allocSinkResult, allocSinkErr = PropagateAttackDelta(g, ann, atk, base, s)
	}); avg != 0 {
		t.Errorf("warmed PropagateAttackDelta allocates %.1f objects per run, want 0", avg)
	}
	if allocSinkErr != nil {
		t.Fatal(allocSinkErr)
	}

	// The borrowed ViaSetInto walk is part of the sweep inner loop too,
	// over the delta cone and over every AS.
	if avg := testing.AllocsPerRun(20, func() {
		base.ViaSetInto(atk.AS, s, s.DeltaCone())
		base.ViaSetInto(atk.AS, s, nil)
	}); avg != 0 {
		t.Errorf("ViaSetInto with borrowed buffers allocates %.1f objects per run, want 0", avg)
	}

	// The fused record path must stay allocation-free when the announcement
	// changes between calls (different λ hits different phase-3 exports) and
	// across the epoch-stamp O(1) reset that each call performs.
	if avg := testing.AllocsPerRun(20, func() {
		for lam := 1; lam <= 4; lam++ {
			allocSinkResult, allocSinkErr = PropagateScratch(g, Announcement{Origin: victim, Prepend: lam}, s)
		}
	}); avg != 0 {
		t.Errorf("warmed PropagateScratch with varying λ allocates %.1f objects per run, want 0", avg)
	}
	if allocSinkErr != nil {
		t.Fatal(allocSinkErr)
	}

	// Sibling links make both entry points repeat their pass; the offer
	// tables are Scratch-owned like everything else.
	gs, _ := graftSiblings(t, g, rand.New(rand.NewSource(5)))
	if base, err = PropagateScratch(gs, ann, s); err != nil {
		t.Fatal(err)
	}
	if _, err := PropagateAttackScratch(gs, ann, atk, base, s); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		allocSinkResult, allocSinkErr = PropagateScratch(gs, ann, s)
	}); avg != 0 {
		t.Errorf("warmed PropagateScratch on a sibling graph allocates %.1f objects per run, want 0", avg)
	}
	if allocSinkErr != nil {
		t.Fatal(allocSinkErr)
	}
	base = allocSinkResult
	if avg := testing.AllocsPerRun(20, func() {
		allocSinkResult, allocSinkErr = PropagateAttackScratch(gs, ann, atk, base, s)
	}); avg != 0 {
		t.Errorf("warmed PropagateAttackScratch on a sibling graph allocates %.1f objects per run, want 0", avg)
	}
	if allocSinkErr != nil {
		t.Fatal(allocSinkErr)
	}
}

// TestEpochResetNoStaleLeak pins the epoch-stamp invalidation: candidate
// entries written by one propagation must never be visible to the next,
// even though beginPropagation writes no memory to "clear" them. The
// adversarial setup runs a far-reaching origin first (stamping nearly every
// record), then propagations whose own reach is smaller — any stale entry
// that leaked through would surface as a wrong class, parent or length
// against a fresh-Scratch computation.
func TestEpochResetNoStaleLeak(t *testing.T) {
	cfg := topology.DefaultGenConfig(500)
	cfg.Seed = 29
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := topology.DefaultGenConfig(120)
	small.Seed = 7
	gSmall, err := topology.Generate(small)
	if err != nil {
		t.Fatal(err)
	}

	s := NewScratch()
	check := func(g *topology.Graph, ann Announcement, label string) {
		t.Helper()
		reused, err := PropagateScratch(g, ann, s)
		if err != nil {
			t.Fatalf("%s: reused: %v", label, err)
		}
		fresh, err := PropagateScratch(g, ann, NewScratch())
		if err != nil {
			t.Fatalf("%s: fresh: %v", label, err)
		}
		compareResults(t, g, reused, fresh, label)
		if t.Failed() {
			t.Fatalf("%s: stale state leaked across propagations", label)
		}
	}

	// Stamp (nearly) every record from a tier-1 origin, then move to stub
	// origins whose routes reach fewer ASes with different classes.
	check(g, Announcement{Origin: g.Tier1s()[0], Prepend: 1}, "tier-1 warmup")
	for trial, asn := range g.ASNs() {
		if !g.IsStub(asn) || trial%17 != 0 {
			continue
		}
		check(g, Announcement{Origin: asn, Prepend: 1 + trial%8}, "stub origin")
	}

	// Shrinking to a smaller graph leaves high-index records stamped by the
	// big graph; they must read as empty if the graph ever grows back.
	check(gSmall, Announcement{Origin: gSmall.Tier1s()[0], Prepend: 2}, "shrunk graph")
	check(g, Announcement{Origin: g.Tier1s()[1], Prepend: 3}, "regrown graph")

	// Attack propagations share the same record table and epoch.
	base, err := PropagateScratch(g, Announcement{Origin: g.Tier1s()[0], Prepend: 2}, s)
	if err != nil {
		t.Fatal(err)
	}
	atk := Attacker{AS: g.Tier1s()[2]}
	reused, err := PropagateAttackScratch(g, Announcement{Origin: g.Tier1s()[0], Prepend: 2}, atk, base, s)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := PropagateAttackScratch(g, Announcement{Origin: g.Tier1s()[0], Prepend: 2}, atk, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, g, reused, fresh, "attack after reuse")
}

// TestEpochWrapHardClear forces the uint32 epoch wraparound (once per ~4.3
// billion real propagations) and checks the hard-clear fallback: stamps
// from pre-wrap propagations could alias the restarted epoch, so
// beginPropagation must clear them rather than let a pre-wrap candidate
// read as live.
func TestEpochWrapHardClear(t *testing.T) {
	cfg := topology.DefaultGenConfig(300)
	cfg.Seed = 41
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScratch()
	s.epoch = ^uint32(0) - 3 // four propagations from wrapping
	for k := 0; k < 8; k++ {
		ann := Announcement{Origin: g.Tier1s()[k%len(g.Tier1s())], Prepend: 1 + k%5}
		reused, err := PropagateScratch(g, ann, s)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		fresh, err := Propagate(g, ann)
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		compareResults(t, g, reused, fresh, "wrap step")
		if t.Failed() {
			t.Fatalf("step %d: epoch wrap leaked stale candidates", k)
		}
		if s.epoch == 0 {
			t.Fatalf("step %d: epoch left at 0 (every record would read live)", k)
		}
	}
	if s.epoch >= ^uint32(0)-3 {
		t.Fatal("epoch never wrapped; the test exercised nothing")
	}
}

// TestDeltaBaselineRepairReuse pins the delta slot's baseline-repair path:
// when consecutive delta calls present the same baseline object, setup
// repairs only the previous cone instead of re-copying the whole baseline.
// Alternating attackers and export modes against one long-lived cloned
// baseline must keep agreeing with the full attack engine.
func TestDeltaBaselineRepairReuse(t *testing.T) {
	cfg := topology.DefaultGenConfig(400)
	cfg.Seed = 53
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ann := Announcement{Origin: g.Tier1s()[0], Prepend: 3}
	s := NewScratch()
	baseIn, err := PropagateScratch(g, ann, s)
	if err != nil {
		t.Fatal(err)
	}
	baseline := baseIn.Clone() // long-lived, as the baseline cache holds them

	attackers := []Attacker{
		{AS: g.Tier1s()[1]},
		{AS: g.Tier1s()[2], ViolateValleyFree: true},
		{AS: g.Tier1s()[1], KeepPrepend: 2},
	}
	for _, asn := range g.ASNs() {
		if g.IsStub(asn) && asn != ann.Origin {
			attackers = append(attackers, Attacker{AS: asn})
			if len(attackers) >= 12 {
				break
			}
		}
	}
	full := NewScratch()
	for round := 0; round < 3; round++ {
		for k, atk := range attackers {
			label := "round " + string(rune('0'+round)) + " attacker " + atk.AS.String()
			delta, derr := PropagateAttackDelta(g, ann, atk, baseline, s)
			want, ferr := PropagateAttackScratch(g, ann, atk, baseline, full)
			if errors.Is(ferr, ErrUnreachableAttacker) {
				if !errors.Is(derr, ErrUnreachableAttacker) {
					t.Fatalf("%s: full unreachable, delta err = %v", label, derr)
				}
				continue
			}
			if ferr != nil || derr != nil {
				t.Fatalf("%s: full err = %v, delta err = %v", label, ferr, derr)
			}
			compareResults(t, g, delta, want, label)
			if t.Failed() {
				t.Fatalf("%s (attacker #%d): repair path diverged", label, k)
			}
		}
	}
	// After warmup, the repair path itself must be allocation-free.
	atk := attackers[0]
	if avg := testing.AllocsPerRun(20, func() {
		allocSinkResult, allocSinkErr = PropagateAttackDelta(g, ann, atk, baseline, s)
	}); avg != 0 {
		t.Errorf("repair-path PropagateAttackDelta allocates %.1f objects per run, want 0", avg)
	}
	if allocSinkErr != nil {
		t.Fatal(allocSinkErr)
	}
}

// TestScratchPoolPath covers the s == nil convenience route: results must
// be private detached copies, correct, and safe to hold after the pooled
// Scratch goes back for reuse by other calls.
func TestScratchPoolPath(t *testing.T) {
	cfg := topology.DefaultGenConfig(200)
	cfg.Seed = 61
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ann := Announcement{Origin: g.Tier1s()[0], Prepend: 2}
	atk := Attacker{AS: g.Tier1s()[1]}

	first, err := PropagateScratch(g, ann, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A second pooled call very likely reuses the same pooled Scratch; the
	// first result must be unaffected because it was cloned out.
	snapshot := first.Clone()
	other := Announcement{Origin: g.Tier1s()[1], Prepend: 5}
	if _, err := PropagateScratch(g, other, nil); err != nil {
		t.Fatal(err)
	}
	compareResults(t, g, first, snapshot, "pooled result detached")

	atkRes, err := PropagateAttackScratch(g, ann, atk, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PropagateAttackScratch(g, ann, atk, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, g, atkRes, want, "pooled attack")
	if atkRes.Via == nil {
		t.Fatal("pooled attack result lost its Via slice in the clone")
	}
}

// TestScratchGrowthGeometric pins the growth policy: capacity grows to
// max(need, 2×cap), so a monotone ladder of sizes reallocates O(log) times,
// and a request within the doubled capacity reallocates nothing.
func TestScratchGrowthGeometric(t *testing.T) {
	s := NewScratch()
	s.grow(1000)
	if s.n != 1000 {
		t.Fatalf("first grow(1000): capacity %d, want exactly 1000", s.n)
	}
	s.grow(1500)
	if s.n != 2000 {
		t.Fatalf("grow(1500) after 1000: capacity %d, want doubled 2000", s.n)
	}
	p := &s.recs[0]
	s.grow(2000) // within the doubled capacity: must not reallocate
	if &s.recs[0] != p {
		t.Fatal("grow(2000) within capacity 2000 reallocated the record table")
	}
	s.grow(5000) // above double: grows to the need
	if s.n != 5000 {
		t.Fatalf("grow(5000) after 2000: capacity %d, want 5000", s.n)
	}
}

// TestScratchNoReallocAcrossTopologySequence is the end-to-end growth
// regression: after warming on the largest graph, propagations across an
// n=1000 → 4000 → 2000 → 4000 topology sequence must never reallocate the
// Scratch or its result slots.
func TestScratchNoReallocAcrossTopologySequence(t *testing.T) {
	var sequence []*topology.Graph
	for i, n := range []int{1000, 4000, 2000} {
		cfg := topology.DefaultGenConfig(n)
		cfg.Seed = int64(3 + 2*i)
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sequence = append(sequence, g)
	}
	sequence = append(sequence, sequence[1])

	s := NewScratch()
	for _, g := range sequence { // warm: growth steps may allocate
		if _, err := PropagateScratch(g, Announcement{Origin: g.Tier1s()[0], Prepend: 2}, s); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(3, func() {
		for _, g := range sequence {
			allocSinkResult, allocSinkErr = PropagateScratch(g, Announcement{Origin: g.Tier1s()[0], Prepend: 2}, s)
		}
	}); avg != 0 || allocSinkErr != nil {
		t.Errorf("warmed Scratch allocates %.1f objects across the size sequence (err %v), want 0", avg, allocSinkErr)
	}
}
