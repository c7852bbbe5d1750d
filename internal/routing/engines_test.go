package routing

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// This file property-tests the Fast engine against the Reference engine:
// on random Internet-like graphs with random victims, attackers, prepend
// levels and export modes, both must produce the identical stable outcome,
// and every produced path must satisfy the protocol invariants.

// neighborASNs returns the ASNs in one of asn's index spans (g.CustomersIdx,
// g.SiblingsIdx, ...), sorted by ASN as g.Providers returns them.
func neighborASNs(g *topology.Graph, asn bgp.ASN, span func(int32) []int32) []bgp.ASN {
	i, ok := g.Index(asn)
	if !ok {
		return nil
	}
	var out []bgp.ASN
	for _, j := range span(i) {
		out = append(out, g.ASNAt(j))
	}
	slices.Sort(out)
	return out
}

func randomScenario(t *testing.T, rng *rand.Rand) (*topology.Graph, Announcement, Attacker) {
	t.Helper()
	cfg := topology.DefaultGenConfig(60 + rng.Intn(140))
	cfg.Tier1 = 3 + rng.Intn(4)
	cfg.Seed = rng.Int63()
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	asns := g.ASNs()
	victim := asns[rng.Intn(len(asns))]
	attacker := victim
	for attacker == victim {
		attacker = asns[rng.Intn(len(asns))]
	}
	ann := Announcement{Origin: victim, Prepend: 1 + rng.Intn(6)}
	if rng.Intn(3) == 0 {
		// Per-neighbor prepending on a few neighbors.
		ann.PerNeighbor = make(map[bgp.ASN]int)
		for _, nbr := range g.Providers(victim) {
			if rng.Intn(2) == 0 {
				ann.PerNeighbor[nbr] = 1 + rng.Intn(6)
			}
		}
	}
	if rng.Intn(4) == 0 {
		// Withhold the announcement from one provider (a failed session),
		// the churn model's primary-link failure.
		providers := g.Providers(victim)
		if len(providers) > 1 {
			withhold(&ann, providers[rng.Intn(len(providers))])
		}
	}
	atk := Attacker{
		AS:                attacker,
		KeepPrepend:       1 + rng.Intn(2),
		ViolateValleyFree: rng.Intn(2) == 0,
	}
	return g, ann, atk
}

// withhold sets λ 0 toward nbr in ann's own table: the origin announces
// nothing there.
func withhold(ann *Announcement, nbr bgp.ASN) {
	if ann.PerNeighbor == nil {
		ann.PerNeighbor = map[bgp.ASN]int{}
	}
	ann.PerNeighbor[nbr] = 0
}

func compareResults(t testing.TB, g *topology.Graph, fast, ref *Result, label string) {
	t.Helper()
	for i := int32(0); i < int32(g.NumASes()); i++ {
		asn := g.ASNAt(i)
		if fast.Class[i] != ref.Class[i] {
			t.Errorf("%s: Class[%v] fast=%v ref=%v", label, asn, fast.Class[i], ref.Class[i])
		}
		if fast.Len[i] != ref.Len[i] {
			t.Errorf("%s: Len[%v] fast=%d ref=%d", label, asn, fast.Len[i], ref.Len[i])
		}
		if fast.Prep[i] != ref.Prep[i] {
			t.Errorf("%s: Prep[%v] fast=%d ref=%d", label, asn, fast.Prep[i], ref.Prep[i])
		}
		if fast.Parent[i] != ref.Parent[i] {
			var fp, rp bgp.ASN
			if fast.Parent[i] >= 0 {
				fp = g.ASNAt(fast.Parent[i])
			}
			if ref.Parent[i] >= 0 {
				rp = g.ASNAt(ref.Parent[i])
			}
			t.Errorf("%s: Parent[%v] fast=%v ref=%v", label, asn, fp, rp)
		}
		if fast.Via != nil && ref.Via != nil && fast.Via[i] != ref.Via[i] {
			t.Errorf("%s: Via[%v] fast=%v ref=%v", label, asn, fast.Via[i], ref.Via[i])
		}
	}
}

// hasLoop reports whether any AS appears in two or more separate runs of
// p. A looped path must be rejected by a BGP speaker whose ASN is repeated;
// in the simulator it indicates a propagation bug.
func hasLoop(p bgp.Path) bool {
	seen := make(map[bgp.ASN]struct{}, p.UniqueLen())
	for i, a := range p {
		if i > 0 && a == p[i-1] {
			continue // same run: legitimate prepending
		}
		if _, dup := seen[a]; dup {
			return true
		}
		seen[a] = struct{}{}
	}
	return false
}

func TestPathHasLoop(t *testing.T) {
	if hasLoop(nil) {
		t.Error("empty path reported a loop")
	}
	tests := []struct {
		give string
		want bool
	}{
		{give: "1 2 3", want: false},
		{give: "1 2 2 2 3", want: false},
		{give: "1 2 3 2", want: true},
		{give: "1 2 2 3 2 2", want: true},
		{give: "5 5 5", want: false},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			p, err := bgp.ParsePath(tt.give)
			if err != nil {
				t.Fatalf("ParsePath(%q): %v", tt.give, err)
			}
			if got := hasLoop(p); got != tt.want {
				t.Errorf("hasLoop(%q) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

// checkInvariants asserts protocol invariants on every path in res.
func checkInvariants(t *testing.T, g *topology.Graph, res *Result, ann Announcement, atk *Attacker, label string) {
	t.Helper()
	for i := int32(0); i < int32(g.NumASes()); i++ {
		asn := g.ASNAt(i)
		if !res.ReachableIdx(i) || i == res.OriginIdx() {
			continue
		}
		path := res.PathOfIdx(i)
		if int32(len(path)) != res.Len[i] {
			t.Errorf("%s: %v: len(PathOf)=%d, Len=%d", label, asn, len(path), res.Len[i])
		}
		if hasLoop(path) {
			t.Errorf("%s: %v: path %v has a loop", label, asn, path)
		}
		if got := path.OriginPrepend(); got != int(res.Prep[i]) {
			t.Errorf("%s: %v: OriginPrepend=%d, Prep=%d", label, asn, got, res.Prep[i])
		}
		if o, _ := path.Origin(); o != ann.Origin {
			t.Errorf("%s: %v: path origin %v, want %v", label, asn, o, ann.Origin)
		}
		// The parent must be a neighbor and the class must match the
		// relationship toward it.
		parent := g.ASNAt(res.Parent[i])
		rel := g.RelOf(asn, parent)
		wantClass := map[topology.RelTo]Class{
			topology.RelCustomer: ClassCustomer,
			topology.RelPeer:     ClassPeer,
			topology.RelProvider: ClassProvider,
		}[rel]
		if wantClass == ClassNone {
			t.Errorf("%s: %v: parent %v is not a neighbor", label, asn, parent)
		} else if res.Class[i] != wantClass {
			t.Errorf("%s: %v: class %v but parent relationship %v", label, asn, res.Class[i], rel)
		}
		checkValleyFree(t, g, path, asn, atk, label)
	}
}

// checkValleyFree verifies the announcement's travel V -> ... -> holder is
// shaped up* peer? down*, except at a valley-free-violating attacker.
func checkValleyFree(t *testing.T, g *topology.Graph, path bgp.Path, holder bgp.ASN, atk *Attacker, label string) {
	t.Helper()
	// Rebuild the node sequence [V ... first-hop, holder] and classify
	// each step from the announcement's perspective.
	uniq := path.Unique()
	nodes := make([]bgp.ASN, 0, len(uniq)+1)
	for i := len(uniq) - 1; i >= 0; i-- {
		nodes = append(nodes, uniq[i])
	}
	nodes = append(nodes, holder)
	const (
		stepUp = iota
		stepPeer
		stepDown
	)
	phase := stepUp
	for i := 0; i+1 < len(nodes); i++ {
		from, to := nodes[i], nodes[i+1]
		var step int
		switch g.RelOf(from, to) {
		case topology.RelProvider:
			step = stepUp
		case topology.RelPeer:
			step = stepPeer
		case topology.RelCustomer:
			step = stepDown
		default:
			t.Errorf("%s: %v: non-adjacent hop %v->%v in path %v", label, holder, from, to, path)
			return
		}
		if step < phase {
			// Violations are legal exactly when the violating attacker is
			// the AS that re-exported the route (the "from" AS).
			if atk != nil && atk.ViolateValleyFree && from == atk.AS {
				phase = step
				continue
			}
			t.Errorf("%s: %v: valley in path %v at hop %v->%v", label, holder, path, from, to)
			return
		}
		if step == stepPeer && phase == stepPeer {
			// A violating attacker may also re-export a peer-learned
			// route to another peer.
			if atk == nil || !atk.ViolateValleyFree || from != atk.AS {
				t.Errorf("%s: %v: two peer hops in path %v", label, holder, path)
				return
			}
		}
		phase = step
	}
}

func TestEnginesAgreeBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		g, ann, _ := randomScenario(t, rng)
		label := fmt.Sprintf("trial %d (origin %v λ=%d)", trial, ann.Origin, ann.Prepend)
		fast, err := Propagate(g, ann)
		if err != nil {
			t.Fatalf("%s: Propagate: %v", label, err)
		}
		ref, err := PropagateReference(g, ann, nil)
		if err != nil {
			t.Fatalf("%s: PropagateReference: %v", label, err)
		}
		compareResults(t, g, fast, ref, label)
		checkInvariants(t, g, fast, ann, nil, label)
		if t.Failed() {
			t.Fatalf("%s: stopping after first failing trial", label)
		}
	}
}

func TestEnginesAgreeUnderAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(1337))
	attacks := 0
	for trial := 0; trial < 40; trial++ {
		g, ann, atk := randomScenario(t, rng)
		label := fmt.Sprintf("trial %d (V=%v M=%v λ=%d keep=%d violate=%v)",
			trial, ann.Origin, atk.AS, ann.Prepend, atk.KeepPrepend, atk.ViolateValleyFree)

		base, err := Propagate(g, ann)
		if err != nil {
			t.Fatalf("%s: baseline: %v", label, err)
		}
		fast, err := PropagateAttackScratch(g, ann, atk, base, nil)
		if err == ErrUnreachableAttacker {
			continue
		}
		if err != nil {
			t.Fatalf("%s: PropagateAttack: %v", label, err)
		}
		ref, err := PropagateReference(g, ann, &atk)
		if err != nil {
			t.Fatalf("%s: PropagateReference: %v", label, err)
		}
		attacks++
		compareResults(t, g, fast, ref, label)
		checkInvariants(t, g, fast, ann, &atk, label)

		// The attacker's own route must be pinned to its baseline route.
		ai, _ := g.Index(atk.AS)
		if fast.Len[ai] != base.Len[ai] || fast.Parent[ai] != base.Parent[ai] {
			t.Errorf("%s: attacker's own route changed under its attack", label)
		}
		if t.Failed() {
			t.Fatalf("%s: stopping after first failing trial", label)
		}
	}
	if attacks < 20 {
		t.Fatalf("only %d usable attack trials, want >= 20", attacks)
	}
}

// TestEnginesAgreeThroughScratchReuse is the differential test for the
// allocation-free path: one Scratch is shared across every trial and runs
// four consecutive propagations per trial (baseline, valley-free attack,
// violating attack, plain baseline for the multi-seed check), and each
// Scratch-owned result must equal the Reference engine's answer — and the
// fresh-allocation Fast path's — before the slot is reused. Well over 200
// randomized scenarios in total, asserted at the end.
func TestEnginesAgreeThroughScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(90210))
	s := NewScratch()
	scenarios := 0
	for trial := 0; trial < 60; trial++ {
		g, ann, atk := randomScenario(t, rng)
		label := fmt.Sprintf("trial %d (V=%v M=%v λ=%d keep=%d)",
			trial, ann.Origin, atk.AS, ann.Prepend, atk.KeepPrepend)

		// Propagation 1: no-attack baseline into the scratch's base slot.
		base, err := PropagateScratch(g, ann, s)
		if err != nil {
			t.Fatalf("%s: PropagateScratch: %v", label, err)
		}
		fresh, err := Propagate(g, ann)
		if err != nil {
			t.Fatalf("%s: Propagate: %v", label, err)
		}
		ref, err := PropagateReference(g, ann, nil)
		if err != nil {
			t.Fatalf("%s: PropagateReference: %v", label, err)
		}
		compareResults(t, g, base, fresh, label+" scratch-vs-fresh")
		compareResults(t, g, base, ref, label+" scratch-vs-ref")
		checkInvariants(t, g, base, ann, nil, label)
		// The scratch-borrowed ViaSetInto walk, on buffers the previous
		// scenario's walk left its marks in, must agree with the allocating
		// ViaSet.
		viaAlloc := base.ViaSet(atk.AS)
		viaScratch := base.ViaSetInto(atk.AS, s, nil)
		for i := range viaAlloc {
			if viaAlloc[i] != viaScratch[i] {
				t.Fatalf("%s: ViaSetInto diverges from ViaSet at index %d", label, i)
			}
		}
		scenarios++

		// Propagations 2+3: both attacker export modes reuse the attack
		// slot, so each result is compared before the next call.
		for _, violate := range []bool{false, true} {
			a := atk
			a.ViolateValleyFree = violate
			alabel := fmt.Sprintf("%s violate=%v", label, violate)
			atkRes, err := PropagateAttackScratch(g, ann, a, base, s)
			if err == ErrUnreachableAttacker {
				continue
			}
			if err != nil {
				t.Fatalf("%s: PropagateAttackScratch: %v", alabel, err)
			}
			atkRef, err := PropagateReference(g, ann, &a)
			if err != nil {
				t.Fatalf("%s: PropagateReference: %v", alabel, err)
			}
			compareResults(t, g, atkRes, atkRef, alabel)
			checkInvariants(t, g, atkRes, ann, &a, alabel)
			scenarios++
		}

		// Propagation 4: a plain announcement (multi-seed can't express
		// per-neighbor λ or withholds) reuses the base slot; its outcome
		// must match single-seed multi propagation path-for-path.
		plainAnn := Announcement{Origin: ann.Origin, Prepend: ann.Prepend}
		plain, err := PropagateScratch(g, plainAnn, s)
		if err != nil {
			t.Fatalf("%s: PropagateScratch(plain): %v", label, err)
		}
		seedPath := make(bgp.Path, plainAnn.Prepend)
		for i := range seedPath {
			seedPath[i] = plainAnn.Origin
		}
		multi, err := PropagateSeeds(g, []Seed{{AS: plainAnn.Origin, Path: seedPath}})
		if err != nil {
			t.Fatalf("%s: PropagateSeeds: %v", label, err)
		}
		for _, asn := range g.ASNs() {
			if asn == plainAnn.Origin {
				continue
			}
			if got, want := multi.PathOf(asn), plain.PathOf(asn); !got.Equal(want) {
				t.Fatalf("%s: multi-seed %v vs scratch %v at %v", label, got, want, asn)
			}
		}
		scenarios++

		if t.Failed() {
			t.Fatalf("%s: stopping after first failing trial", label)
		}
	}
	if scenarios < 200 {
		t.Fatalf("only %d scenarios exercised, want >= 200", scenarios)
	}
}

// TestScratchResultsDetachWithPropagate pins the ownership contract: a
// slot's Result is overwritten by the next call on the same slot, and
// Propagate's Result, on storage of its own, survives it.
func TestScratchResultsDetachWithPropagate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, ann, _ := randomScenario(t, rng)
	s := NewScratch()

	first, err := PropagateScratch(g, ann, s)
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := Propagate(g, ann)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, g, first, snapshot, "standalone")

	// A different announcement through the same slot overwrites `first`.
	other := Announcement{Origin: ann.Origin, Prepend: ann.Prepend + 3}
	second, err := PropagateScratch(g, other, s)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("expected the base slot to be reused for the second call")
	}
	fresh, err := Propagate(g, other)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, g, second, fresh, "reused slot")
	// The standalone Result still holds the first outcome.
	freshFirst, err := Propagate(g, ann)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, g, snapshot, freshFirst, "detached standalone")
}

// randomDeltaScenario draws a scenario for the three-engine differential
// suite: tier-biased endpoints (core, stub or uniform), λ ∈ 1..8, random
// per-neighbor prepends, withholds and KeepPrepend. The violate flag is
// driven by the caller, which runs both modes per scenario.
func randomDeltaScenario(t *testing.T, rng *rand.Rand) (*topology.Graph, Announcement, Attacker) {
	t.Helper()
	cfg := topology.DefaultGenConfig(40 + rng.Intn(90))
	cfg.Tier1 = 3 + rng.Intn(4)
	cfg.Seed = rng.Int63()
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	asns := g.ASNs()
	var stubs []bgp.ASN
	for _, asn := range asns {
		if g.IsStub(asn) {
			stubs = append(stubs, asn)
		}
	}
	pick := func() bgp.ASN {
		switch rng.Intn(3) {
		case 0:
			t1 := g.Tier1s()
			return t1[rng.Intn(len(t1))]
		case 1:
			if len(stubs) > 0 {
				return stubs[rng.Intn(len(stubs))]
			}
			fallthrough
		default:
			return asns[rng.Intn(len(asns))]
		}
	}
	victim := pick()
	attacker := victim
	for attacker == victim {
		attacker = pick()
	}
	ann := Announcement{Origin: victim, Prepend: 1 + rng.Intn(8)}
	if rng.Intn(3) == 0 {
		ann.PerNeighbor = make(map[bgp.ASN]int)
		for _, nbr := range g.Providers(victim) {
			if rng.Intn(2) == 0 {
				ann.PerNeighbor[nbr] = 1 + rng.Intn(8)
			}
		}
	}
	if rng.Intn(4) == 0 {
		providers := g.Providers(victim)
		if len(providers) > 1 {
			withhold(&ann, providers[rng.Intn(len(providers))])
		}
	}
	atk := Attacker{AS: attacker, KeepPrepend: 1 + rng.Intn(2)}
	return g, ann, atk
}

// TestDeltaEngineDifferential is the delta-cone differential suite: over
// 500 randomized attack scenarios (mixed tiers, λ ∈ 1..8, valley-free
// follow and violate), the Delta engine must agree with the Fast and
// Reference engines on the pollution set (Via) and every AS's best path —
// while one Scratch is reused across its baseline, attack and delta slots
// for the whole run, and the two DAG engines must agree on which attackers
// are unreachable.
func TestDeltaEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	s := NewScratch()
	scenarios := 0
	for trial := 0; scenarios < 510 && trial < 2000; trial++ {
		g, ann, atk := randomDeltaScenario(t, rng)
		label := fmt.Sprintf("trial %d (V=%v M=%v λ=%d keep=%d)",
			trial, ann.Origin, atk.AS, ann.Prepend, atk.KeepPrepend)

		base, err := PropagateScratch(g, ann, s)
		if err != nil {
			t.Fatalf("%s: PropagateScratch: %v", label, err)
		}
		refBase, err := PropagateReference(g, ann, nil)
		if err != nil {
			t.Fatalf("%s: PropagateReference: %v", label, err)
		}
		compareResults(t, g, base, refBase, label+" baseline")

		for _, violate := range []bool{false, true} {
			a := atk
			a.ViolateValleyFree = violate
			alabel := fmt.Sprintf("%s violate=%v", label, violate)

			full, ferr := PropagateAttackScratch(g, ann, a, base, s)
			delta, derr := PropagateAttackDelta(g, ann, a, base, s)
			if errors.Is(ferr, ErrUnreachableAttacker) {
				if !errors.Is(derr, ErrUnreachableAttacker) {
					t.Fatalf("%s: fast unreachable but delta err = %v", alabel, derr)
				}
				continue
			}
			if ferr != nil {
				t.Fatalf("%s: PropagateAttackScratch: %v", alabel, ferr)
			}
			if derr != nil {
				t.Fatalf("%s: PropagateAttackDelta: %v", alabel, derr)
			}
			ref, err := PropagateReference(g, ann, &a)
			if err != nil {
				t.Fatalf("%s: PropagateReference: %v", alabel, err)
			}
			compareResults(t, g, delta, full, alabel+" delta-vs-fast")
			compareResults(t, g, delta, ref, alabel+" delta-vs-ref")
			checkInvariants(t, g, delta, ann, &a, alabel)
			checkDeltaCone(t, g, base, delta, a, s, alabel)
			if delta.PollutedCount() != full.PollutedCount() {
				t.Errorf("%s: pollution %d (delta) vs %d (fast)", alabel,
					delta.PollutedCount(), full.PollutedCount())
			}
			scenarios++

			if !violate {
				// Slot reuse: a second delta call on the same Scratch must
				// return the same slot with the same outcome.
				again, err := PropagateAttackDelta(g, ann, a, base, s)
				if err != nil {
					t.Fatalf("%s: repeat PropagateAttackDelta: %v", alabel, err)
				}
				if again != delta {
					t.Fatalf("%s: delta slot not reused across calls", alabel)
				}
				compareResults(t, g, again, full, alabel+" delta-repeat")
			}
		}
		if t.Failed() {
			t.Fatalf("%s: stopping after first failing trial", label)
		}
	}
	if scenarios < 500 {
		t.Fatalf("only %d attack scenarios exercised, want >= 500", scenarios)
	}
}

// checkDeltaCone pins what cone-sized accounting rests on: every AS whose
// row the attack changed, and every AS routing via the attacker before or
// under it, is on s.DeltaCone() — so a via walk over the cone alone equals
// the whole-graph answer, read here off the paths themselves.
func checkDeltaCone(t *testing.T, g *topology.Graph, base, delta *Result, atk Attacker, s *Scratch, label string) {
	t.Helper()
	inCone := make([]bool, g.NumASes())
	for _, i := range s.DeltaCone() {
		inCone[i] = true
	}
	viaCone := base.ViaSetInto(atk.AS, s, s.DeltaCone())
	for i, asn := range g.ASNs() {
		idx := mustIdx(t, g, asn)
		viaBefore := slices.Contains(base.PathOf(asn), atk.AS)
		changed := base.Class[idx] != delta.Class[idx] || base.Len[idx] != delta.Len[idx] ||
			base.Prep[idx] != delta.Prep[idx] || base.Parent[idx] != delta.Parent[idx]
		if (viaBefore || delta.Via[idx] || changed) && !inCone[idx] {
			t.Errorf("%s: %v outside the cone: via before=%v after=%v, row changed=%v", label, asn, viaBefore, delta.Via[idx], changed)
		}
		if viaCone[idx] != viaBefore {
			t.Errorf("%s: cone-sized via walk says %v for %v (#%d), its path says %v", label, viaCone[idx], asn, i, viaBefore)
		}
	}
}

// FuzzDeltaAttack drives the delta engine with fuzzed graphs of 64-400
// ASes, so its worklists span several words, and fuzzed victims,
// attackers, λ, keep and violate. When lambdaSel's top bit is set, the
// origin also sends a per-neighbor λ on some of its links and withholds
// others, in every relationship class, so the engine is held to the
// kernel through the seed rule they share (Announcement.seed). Each input
// runs its attack and three more attackers drawn from the seed on one
// Scratch against its baseline slot, so every call after the first
// repairs the rows the previous one wrote. Each result must equal the
// full kernel's row for row and pass checkDeltaCone and checkStable, and
// all three worklists must be zero on return. Wired into `make fuzz-smoke`.
func FuzzDeltaAttack(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(0), uint16(1), uint8(2), uint8(0), false)
	f.Add(int64(42), uint16(100), uint16(7), uint16(300), uint8(4), uint8(1), true)
	f.Add(int64(7), uint16(336), uint16(2), uint16(5), uint8(7), uint8(2), false)
	f.Add(int64(99), uint16(200), uint16(150), uint16(3), uint8(0), uint8(1), true)
	f.Add(int64(-3), uint16(65535), uint16(65535), uint16(65535), uint8(255), uint8(255), true)
	f.Add(int64(5), uint16(80), uint16(12), uint16(40), uint8(0x83), uint8(0), true)
	f.Add(int64(11), uint16(250), uint16(3), uint16(77), uint8(0x85), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, nSel, victimSel, atkSel uint16, lambdaSel, keepSel uint8, violate bool) {
		cfg := topology.DefaultGenConfig(64 + int(nSel)%337)
		cfg.Seed = seed
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Skip()
		}
		asns := g.ASNs()
		ann := Announcement{Origin: asns[int(victimSel)%len(asns)], Prepend: 1 + int(lambdaSel)%8}
		if lambdaSel&0x80 != 0 {
			pick := rand.New(rand.NewSource(^seed))
			ann.PerNeighbor = map[bgp.ASN]int{}
			for _, nbrs := range [][]bgp.ASN{g.Providers(ann.Origin), g.Peers(ann.Origin), neighborASNs(g, ann.Origin, g.CustomersIdx)} {
				for _, nbr := range nbrs {
					switch pick.Intn(4) {
					case 0:
						ann.PerNeighbor[nbr] = 0
					case 1:
						ann.PerNeighbor[nbr] = 1 + pick.Intn(8)
					}
				}
			}
		}
		s := NewScratch()
		base, err := PropagateScratch(g, ann, s)
		if err != nil {
			t.Fatalf("PropagateScratch: %v", err)
		}
		rng := rand.New(rand.NewSource(seed))
		attacker := asns[int(atkSel)%len(asns)]
		for leg := 0; leg < 4; leg, attacker = leg+1, asns[rng.Intn(len(asns))] {
			if attacker == ann.Origin {
				continue
			}
			atk := Attacker{AS: attacker, KeepPrepend: 1 + int(keepSel)%3, ViolateValleyFree: violate != (leg%2 == 1)}
			label := fmt.Sprintf("leg %d (V=%v M=%v λ=%d per-neighbor=%v keep=%d violate=%v)",
				leg, ann.Origin, atk.AS, ann.Prepend, ann.PerNeighbor, atk.KeepPrepend, atk.ViolateValleyFree)
			full, ferr := PropagateAttackScratch(g, ann, atk, base, s)
			delta, derr := PropagateAttackDelta(g, ann, atk, base, s)
			if errors.Is(ferr, ErrUnreachableAttacker) && errors.Is(derr, ErrUnreachableAttacker) {
				continue
			}
			if ferr != nil || derr != nil {
				t.Fatalf("%s: full kernel err = %v, delta err = %v", label, ferr, derr)
			}
			compareResults(t, g, delta, full, label)
			checkDeltaCone(t, g, base, delta, atk, s, label)
			checkStable(t, g, delta, ann, &atk, nil)
			for k, list := range s.dirty {
				for wi, w := range list {
					if w != 0 {
						t.Fatalf("%s: worklist %d word %d = %#x on return, want 0", label, k, wi, w)
					}
				}
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	})
}

// TestDeltaEngineSiblingContract covers the sibling-link slice of the
// differential suite: on sibling-bearing graphs the incremental engine
// must refuse with ErrSiblingsNeedFullKernel while the Reference engine
// routes them deterministically and loop-free (the full kernel's agreement
// with it is sibling_diff_test.go's subject).
func TestDeltaEngineSiblingContract(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	s := NewScratch()
	for trial := 0; trial < 12; trial++ {
		plain, ann, atk := randomDeltaScenario(t, rng)
		g, _ := graftSiblings(t, plain, rng)
		label := fmt.Sprintf("sibling trial %d (V=%v M=%v λ=%d)", trial, ann.Origin, atk.AS, ann.Prepend)

		if _, err := PropagateAttackDelta(g, ann, atk, nil, s); !errors.Is(err, ErrSiblingsNeedFullKernel) {
			t.Fatalf("%s: PropagateAttackDelta err = %v, want ErrSiblingsNeedFullKernel", label, err)
		}

		refBase, err := PropagateReference(g, ann, nil)
		if err != nil {
			t.Fatalf("%s: reference baseline: %v", label, err)
		}
		refAtk, err := PropagateReference(g, ann, &atk)
		if err != nil {
			t.Fatalf("%s: reference attack: %v", label, err)
		}
		// Determinism: a rerun reproduces both outcomes exactly.
		refBase2, err := PropagateReference(g, ann, nil)
		if err != nil {
			t.Fatalf("%s: reference baseline rerun: %v", label, err)
		}
		refAtk2, err := PropagateReference(g, ann, &atk)
		if err != nil {
			t.Fatalf("%s: reference attack rerun: %v", label, err)
		}
		compareResults(t, g, refBase, refBase2, label+" baseline determinism")
		compareResults(t, g, refAtk, refAtk2, label+" attack determinism")
		for _, asn := range g.ASNs() {
			if p := refAtk.PathOf(asn); hasLoop(p) {
				t.Errorf("%s: %v has loop %v", label, asn, p)
			}
		}
		if t.Failed() {
			t.Fatalf("%s: stopping after first failing trial", label)
		}
	}
}

// TestDeltaRejectsMismatchedBaseline pins the delta precondition: the
// baseline must belong to the same graph and origin.
func TestDeltaRejectsMismatchedBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, ann, atk := randomScenario(t, rng)
	base, err := Propagate(g, ann)
	if err != nil {
		t.Fatal(err)
	}
	otherAnn := Announcement{Origin: atk.AS, Prepend: 2}
	wrongOrigin, err := Propagate(g, otherAnn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PropagateAttackDelta(g, ann, atk, wrongOrigin, nil); err == nil {
		t.Error("delta accepted a baseline for a different origin")
	}
	g2, ann2, _ := randomScenario(t, rng)
	if _, err := PropagateAttackDelta(g2, ann2, Attacker{AS: pickOther(g2, ann2.Origin)}, base, nil); err == nil {
		t.Error("delta accepted a baseline for a different graph")
	}
}

func pickOther(g *topology.Graph, not bgp.ASN) bgp.ASN {
	for _, asn := range g.ASNs() {
		if asn != not {
			return asn
		}
	}
	return not
}

func TestEnginesAgreeOnHandGraph(t *testing.T) {
	g := testGraph(t)
	for _, lambda := range []int{1, 2, 3, 5, 8} {
		for _, attacker := range []bgp.ASN{30, 50, 60, 200} {
			for _, violate := range []bool{false, true} {
				ann := Announcement{Origin: 100, Prepend: lambda}
				atk := Attacker{AS: attacker, ViolateValleyFree: violate}
				label := fmt.Sprintf("M=%v λ=%d violate=%v", attacker, lambda, violate)
				fast, err := PropagateAttackScratch(g, ann, atk, nil, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				ref, err := PropagateReference(g, ann, &atk)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				compareResults(t, g, fast, ref, label)
			}
		}
	}
}

// TestLeafEdgeCases holds phase 3's leaf loop (the rows [0, NumLeaves()))
// to the oracles wherever a leaf plays a part of its own: the origin, the
// attacker or the forger is a leaf; the origin's per-neighbour λ and a
// withheld session point at leaf customers; leaves deploy cautious
// adoption. Plain and strip legs must match the reference engine row for
// row, Via included; forged claims match the multi-announcer oracle;
// cautious legs, which may have two stable states, pass checkStable, as
// every other leg must too. Each run emits every row once: RowsDown is n
// per run.
func TestLeafEdgeCases(t *testing.T) {
	def := topology.DefaultGenConfig(1500)
	def.Seed = 7
	for _, cfg := range []topology.GenConfig{def, topology.InternetGenConfig(2000)} {
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n, nl := int32(g.NumASes()), g.NumLeaves()
		// Two multi-homed leaves, from either end of the leaf range, and a
		// transit AS with two leaf customers.
		var leafO, leafA, hub, c1, c2 int32 = -1, -1, -1, -1, -1
		for i := int32(0); i < nl; i++ {
			if len(g.ProvidersIdx(i)) > 1 {
				leafA = i
				if leafO < 0 {
					leafO = i
				}
			}
		}
		for u := nl; u < n && hub < 0; u++ {
			if cs := g.CustomersIdx(u); len(cs) > 1 && cs[1] < nl {
				hub, c1, c2 = u, cs[0], cs[1]
			}
		}
		if leafO < 0 || leafO == leafA || hub < 0 {
			t.Fatalf("n=%d: no two multi-homed leaves or no transit AS with two leaf customers", n)
		}
		asn := g.ASNAt
		leafOrigin := Announcement{Origin: asn(leafO), Prepend: 4}
		skewed := Announcement{Origin: asn(hub), Prepend: 3,
			PerNeighbor: map[bgp.ASN]int{asn(c1): 6, asn(c2): 0}}
		hubOrigin := Announcement{Origin: asn(hub), Prepend: 3}
		strip := func(violate bool) *Attacker { return &Attacker{AS: asn(leafA), ViolateValleyFree: violate} }
		forge := func(kind AttackKind) *Attacker { return &Attacker{AS: asn(leafA), Kind: kind} }
		cases := []struct {
			name   string
			ann    Announcement
			atk    *Attacker
			deploy bool // every leaf deploys cautious adoption
		}{
			{"leaf origin", leafOrigin, nil, false},
			{"λ and a withheld session toward leaf customers", skewed, nil, false},
			{"leaf attacker, following", hubOrigin, strip(false), false},
			{"leaf attacker, violating", hubOrigin, strip(true), false},
			{"leaf origin, leaf attacker", leafOrigin, strip(true), false},
			{"leaf attacker, λ and a withheld session toward leaf customers", skewed, strip(true), false},
			{"leaf forger, origin hijack", hubOrigin, forge(AttackOriginHijack), false},
			{"leaf origin, leaf forger, next-hop", leafOrigin, forge(AttackNextHopInterception), false},
			{"leaf cautious deployers", hubOrigin, strip(true), true},
			{"leaf origin, leaf cautious deployers", leafOrigin, strip(true), true},
		}
		s := NewScratch()
		for _, tc := range cases {
			label := fmt.Sprintf("n=%d %s (V=%v M=%v)", n, tc.name, tc.ann.Origin, asn(leafA))
			var res *Result
			var thr []int16
			switch {
			case tc.atk == nil:
				res, err = PropagateScratch(g, tc.ann, s)
			case tc.deploy:
				base := mustPropagate(t, g, tc.ann)
				deployers := make([]bgp.ASN, nl)
				for i := range deployers {
					deployers[i] = asn(int32(i))
				}
				thr = cautiousThresholds(g, base, deployers)
				res, err = PropagateCautious(g, tc.ann, *tc.atk, base, thr, s)
			default:
				res, err = PropagateAttackScratch(g, tc.ann, *tc.atk, nil, s)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if rows := s.RowsDown(); rows == 0 || rows%int64(n) != 0 || !tc.deploy && rows != int64(n) {
				t.Errorf("%s: RowsDown %d on %d ASes", label, rows, n)
			}
			checkStable(t, g, res, tc.ann, tc.atk, thr)
			switch {
			case tc.deploy:
			case tc.atk != nil && tc.atk.Kind != AttackASPP:
				checkForged(t, g, res, forgedOracle(t, g, tc.ann, *tc.atk), *tc.atk, label)
			default:
				ref, err := PropagateReference(g, tc.ann, tc.atk)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				compareResults(t, g, res, ref, label)
			}
			if t.Failed() {
				t.Fatalf("%s: stopping at the first failing case", label)
			}
		}
	}
}
