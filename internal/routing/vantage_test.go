package routing

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// Two ASes of an island nothing else routes to, and an ASN outside the graph.
const islandTop, islandStub, absentASN = bgp.ASN(900001), bgp.ASN(900002), bgp.ASN(900003)

// withIsland returns g plus a provider-customer pair linked to nothing else.
func withIsland(t testing.TB, g *topology.Graph) *topology.Graph {
	t.Helper()
	b := topology.Rebuild(g)
	if err := b.AddP2C(islandTop, islandStub); err != nil {
		t.Fatal(err)
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// vantageMonitors draws a monitor list that holds, besides a few random
// ASes, whichever of the awkward members the trial's bits select: the
// origin, an ASN outside the graph, the unreachable island stub, a
// duplicate, a stub and a tier-1.
func vantageMonitors(g *topology.Graph, origin bgp.ASN, rng *rand.Rand) (mons []bgp.ASN, kinds uint) {
	asns := g.ASNs()
	for k := rng.Intn(10); k >= 0; k-- {
		mons = append(mons, asns[rng.Intn(len(asns))])
	}
	kinds = uint(rng.Intn(64))
	var stub bgp.ASN
	for _, a := range asns[rng.Intn(len(asns)):] {
		if g.IsStub(a) {
			stub = a
			break
		}
	}
	for bit, m := range []bgp.ASN{origin, absentASN, islandStub, mons[0], stub, g.Tier1s()[0]} {
		if kinds&(1<<uint(bit)) != 0 && m != 0 {
			mons = append(mons, m)
		}
	}
	rng.Shuffle(len(mons), func(i, j int) { mons[i], mons[j] = mons[j], mons[i] })
	return mons, kinds
}

func rowString(r *Result, i int32) string {
	return fmt.Sprintf("{%v len %d prep %d parent %d}", r.Class[i], r.Len[i], r.Prep[i], r.Parent[i])
}

func rowEqual(a, b *Result, i int32) bool {
	return a.Class[i] == b.Class[i] && a.Len[i] == b.Len[i] && a.Prep[i] == b.Prep[i] && a.Parent[i] == b.Parent[i]
}

// checkVantageRows holds the rows a Vantage call left in s's baseline slot
// to the full scan's: at every monitor and along its whole parent chain.
func checkVantageRows(t *testing.T, v *Vantage, s *Scratch, full *Result, label string) {
	t.Helper()
	for _, m := range v.mons {
		if m < 0 {
			continue
		}
		for j := m; ; j = full.Parent[j] {
			if !rowEqual(&s.base, full, j) {
				t.Fatalf("%s: row %d on monitor %d's chain is %s, the full scan's %s", label, j, m, rowString(&s.base, j), rowString(full, j))
			}
			if j == full.origin || full.Class[j] == ClassNone {
				break
			}
			if full.Parent[j] == full.origin {
				break // the origin's row is the scan's only where it is a monitor's
			}
		}
	}
}

// TestVantageDifferential: on 1,200 generated (graph, announcement, monitor
// list) scenarios — uniform, per-neighbor λ and withheld-session
// announcements; lists with the origin, an absent ASN, an unreachable AS, a
// duplicate, a stub and a tier-1 — a Vantage propagation into a poisoned
// baseline slot leaves rows equal to the full scan's at every monitor and
// along its whole parent chain, returns the full scan's spans, and emits
// exactly the closure and the customer-route holders, each once.
func TestVantageDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2404))
	s, fullS := NewScratch(), NewScratch()
	arena := NewPathArena()
	var seen, shapes uint
	for trial := 0; trial < 1200; trial++ {
		g, ann, _ := randomScenario(t, rng)
		g = withIsland(t, g)
		mons, kinds := vantageMonitors(g, ann.Origin, rng)
		seen |= kinds
		for _, lam := range ann.PerNeighbor {
			if lam == 0 {
				shapes |= 2 // a withheld session
			} else {
				shapes |= 1
			}
		}
		label := fmt.Sprintf("trial %d (n=%d ann=%+v monitors=%v)", trial, g.NumASes(), ann, mons)

		v := NewVantage(g, mons)
		full, err := PropagateScratch(g, ann, fullS)
		if err != nil {
			t.Fatalf("%s: PropagateScratch: %v", label, err)
		}
		resultInto(&s.base, g, 0).poison()
		arena.Reset()
		got, err := v.PathsInto(ann, s, arena, nil)
		if err != nil {
			t.Fatalf("%s: Vantage.PathsInto: %v", label, err)
		}
		words := len(v.rows)
		emitted := 0
		for wi := 0; wi < words; wi++ {
			emitted += bits.OnesCount64(v.rows[wi] | s.custSet[wi])
		}
		if s.RowsDown() != int64(emitted) || emitted > g.NumASes() {
			t.Fatalf("%s: %d rows emitted, closure and customer-route holders are %d", label, s.RowsDown(), emitted)
		}
		checkVantageRows(t, v, s, full, label)

		want := full.PathsInto(arena, v.mons, nil) // same arena: Seg ids compare
		if len(got) != len(mons) {
			t.Fatalf("%s: %d spans for %d monitors", label, len(got), len(mons))
		}
		for k := range want {
			g, w := got[k], want[k]
			if g.Len != w.Len || g.Prep != w.Prep || g.Origin != w.Origin || g.Seg != w.Seg ||
				(w.Prep > 0 && !slices.Equal(arena.Body(g), arena.Body(w))) {
				t.Fatalf("%s: monitor %v: span %+v, the full scan's %+v", label, mons[k], g, w)
			}
		}
		// Without an arena the spans keep Prep and Origin only.
		s.base.poison()
		bare, err := v.PathsInto(ann, s, nil, nil)
		if err != nil {
			t.Fatalf("%s: Vantage.PathsInto(nil arena): %v", label, err)
		}
		for k, w := range want {
			if b := bare[k]; b.Prep != w.Prep || b.Origin != w.Origin || b.Seg != -1 || b.Len != 0 {
				t.Fatalf("%s: monitor %v: arena-less span %+v, the full scan's %+v", label, mons[k], b, w)
			}
		}
	}
	if seen != 63 || shapes != 3 {
		t.Fatalf("monitor kinds drawn %06b, announcement shapes %02b: a case never occurred", seen, shapes)
	}
}

// TestVantageClosure: the rows a Vantage asks for are its monitors'
// provider up-closure and nothing else — every known monitor, every
// provider of a member, and no AS that is neither.
func TestVantageClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		g, ann, _ := randomScenario(t, rng)
		mons, _ := vantageMonitors(g, ann.Origin, rng)
		v := NewVantage(g, mons)
		in := func(u int32) bool { return v.rows[u>>6]&(1<<uint(u&63)) != 0 }
		if len(v.mons) != len(mons) {
			t.Fatalf("trial %d: %d monitors resolved from %d", trial, len(v.mons), len(mons))
		}
		for k, m := range mons {
			idx, ok := g.Index(m)
			if !ok {
				idx = -1
			}
			if v.mons[k] != idx || (ok && !in(idx)) {
				t.Fatalf("trial %d: monitor %v resolved to %d (want %d) or is outside its own closure", trial, m, v.mons[k], idx)
			}
		}
		for u := int32(0); u < int32(g.NumASes()); u++ {
			if !in(u) {
				continue
			}
			below := slices.Contains(v.mons, u)
			for _, c := range g.CustomersIdx(u) {
				below = below || in(c)
			}
			if !below {
				t.Fatalf("trial %d: AS %d is in the closure but is no monitor and has no customer there", trial, u)
			}
			for _, p := range g.ProvidersIdx(u) {
				if p <= u || !in(p) {
					t.Fatalf("trial %d: provider %d of member %d is missing, or numbered below it", trial, p, u)
				}
			}
		}
	}
}

// TestVantageFullScanCases: a sibling-bearing graph makes a Vantage call
// emit every row, and an attack propagation on a Scratch a Vantage just used
// is the whole-graph result it always was.
func TestVantageFullScanCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewScratch()
	for trial := 0; trial < 60; trial++ {
		g, ann, atk := randomScenario(t, rng)
		mons, _ := vantageMonitors(g, ann.Origin, rng)
		gs, _ := graftSiblings(t, g, rng)
		full, err := Propagate(gs, ann)
		if err != nil {
			t.Fatal(err)
		}
		resultInto(&s.base, gs, 0).poison()
		if _, err := NewVantage(gs, mons).PathsInto(ann, s, nil, nil); err != nil {
			t.Fatalf("trial %d: sibling graph: %v", trial, err)
		}
		if !baselineRowsEqual(&s.base, full) || s.RowsDown() < int64(gs.NumASes()) {
			t.Fatalf("trial %d: a sibling graph's rows differ from the full scan's (%d rows emitted, n=%d)", trial, s.RowsDown(), gs.NumASes())
		}

		if _, err := NewVantage(g, mons).PathsInto(ann, s, nil, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		base, err := Propagate(g, ann)
		if err != nil {
			t.Fatal(err)
		}
		want, err := PropagateAttackScratch(g, ann, atk, base, nil)
		if err != nil {
			continue // the drawn attacker has no route
		}
		got, err := PropagateAttackScratch(g, ann, atk, base, s)
		if err != nil {
			t.Fatalf("trial %d: attack after a Vantage call: %v", trial, err)
		}
		if !baselineRowsEqual(got, want) || !slices.Equal(got.Via, want.Via) || s.RowsDown() != int64(g.NumASes()) {
			t.Fatalf("trial %d: attack rows after a Vantage call differ from a fresh Scratch's", trial)
		}
	}
}

// TestVantagePathsIntoZeroAlloc pins a warmed Vantage propagation, with and
// without an arena, at no allocations.
func TestVantagePathsIntoZeroAlloc(t *testing.T) {
	cfg := topology.DefaultGenConfig(800)
	cfg.Seed = 13
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVantage(g, g.TopByDegree(40))
	anns := []Announcement{
		{Origin: g.ASNs()[100], Prepend: 1},
		{Origin: g.ASNs()[500], Prepend: 4},
	}
	s, arena := NewScratch(), NewPathArena()
	var spans []PathSpan
	run := func(a *PathArena) {
		for _, ann := range anns {
			arena.Reset()
			spans, allocSinkErr = v.PathsInto(ann, s, a, spans[:0])
		}
	}
	run(arena) // warm the slot, the spans and the intern table
	for _, a := range []*PathArena{arena, nil} {
		if avg := testing.AllocsPerRun(20, func() { run(a) }); avg != 0 || allocSinkErr != nil {
			t.Errorf("warmed Vantage.PathsInto (arena %v) allocates %.1f objects per run, want 0 (err %v)", a != nil, avg, allocSinkErr)
		}
	}
}
