package routing

import (
	"fmt"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

func arenaTestGraph(t testing.TB, n int, seed int64) *topology.Graph {
	t.Helper()
	cfg := topology.DefaultGenConfig(n)
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allIndices(g *topology.Graph) []int32 {
	idx := make([]int32, g.NumASes())
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// TestPathsIntoDecodesToPathOf pins the tentpole's core contract: for
// every AS, the arena span materializes to exactly the path PathOfIdx
// builds, across baseline and attack results and λ values.
func TestPathsIntoDecodesToPathOf(t *testing.T) {
	g := arenaTestGraph(t, 400, 21)
	victim, attacker := g.Tier1s()[0], g.Tier1s()[1]
	idx := allIndices(g)
	a := NewPathArena()
	var spans []PathSpan

	for lambda := 1; lambda <= 4; lambda++ {
		ann := Announcement{Origin: victim, Prepend: lambda}
		base, err := Propagate(g, ann)
		if err != nil {
			t.Fatal(err)
		}
		results := []*Result{base}
		if lambda >= 2 {
			atk, err := PropagateAttackScratch(g, ann, Attacker{AS: attacker}, base, nil)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, atk)
		}
		for ri, r := range results {
			a.Reset()
			spans = r.PathsInto(a, idx, spans[:0])
			if len(spans) != len(idx) {
				t.Fatalf("λ=%d result %d: %d spans for %d monitors", lambda, ri, len(spans), len(idx))
			}
			segBody := make(map[int32]string)
			for i, sp := range spans {
				want := r.PathOfIdx(int32(i))
				got := a.Path(sp)
				if !got.Equal(want) {
					t.Fatalf("λ=%d result %d AS %v: span decodes to %v, PathOfIdx %v",
						lambda, ri, g.ASNAt(int32(i)), got, want)
				}
				if want == nil {
					if sp.Prep != 0 {
						t.Fatalf("routeless AS %v: span not empty: %+v", g.ASNAt(int32(i)), sp)
					}
					continue
				}
				// Interning: equal transit chains must share a seg id, and
				// one seg id must always denote one chain.
				chain := fmt.Sprint(want.Unique()[:want.UniqueLen()-1])
				if prev, ok := segBody[sp.Seg]; ok && prev != chain {
					t.Fatalf("seg %d denotes two chains: %s vs %s", sp.Seg, prev, chain)
				}
				segBody[sp.Seg] = chain
				if gotChain := fmt.Sprint(bgp.Path(a.SegBody(sp.Seg))); gotChain != chain {
					t.Fatalf("AS %v: SegBody %s, want transit %s", g.ASNAt(int32(i)), gotChain, chain)
				}
			}
			// Reverse direction: distinct seg ids must carry distinct chains.
			seen := make(map[string]int32)
			for id, chain := range segBody {
				if other, dup := seen[chain]; dup && other != id {
					t.Fatalf("chain %s interned twice: segs %d and %d", chain, other, id)
				}
				seen[chain] = id
			}
		}
	}
}

// TestPathWith pins the single-allocation collector-export shape.
func TestPathWith(t *testing.T) {
	a := NewPathArena()
	p := bgp.Path{10, 20, 20, 30, 30, 30}
	sp, _ := a.Replace(PathSpan{}, p)
	got := a.PathWith(99, sp)
	want := p.Prepend(99, 1)
	if !got.Equal(want) {
		t.Fatalf("PathWith = %v, want %v", got, want)
	}
	if a.PathWith(99, PathSpan{Seg: -1}) != nil {
		t.Fatal("PathWith on empty span should be nil")
	}
}

// TestArenaPutRoundTrip exercises raw-path storage (Replace of the empty
// span, as the detector stores a first route), including paths with
// intermediate prepends, whose bodies must be preserved verbatim while
// the interned segment collapses them.
func TestArenaPutRoundTrip(t *testing.T) {
	a := NewPathArena()
	cases := []bgp.Path{
		{7},
		{1, 7},
		{1, 7, 7, 7},
		{1, 1, 2, 3, 3, 7, 7}, // intermediate prepending
		{4, 2, 7},
	}
	spans := make([]PathSpan, len(cases))
	for i, p := range cases {
		spans[i], _ = a.Replace(PathSpan{}, p)
	}
	for i, p := range cases {
		if got := a.Path(spans[i]); !got.Equal(p) {
			t.Fatalf("case %d: round trip %v, want %v", i, got, p)
		}
	}
	// {1,7,7,7} and {1,1,2,3,3,7,7} have transits {1} and {1,2,3}; the
	// collapsed transit of case 3 must match a fresh intern of {1,2,3}.
	if id := a.Intern([]bgp.ASN{1, 2, 3}); id != spans[3].Seg {
		t.Fatalf("collapsed transit of %v interned as %d, fresh intern %d", cases[3], spans[3].Seg, id)
	}
	if spans[1].Seg != spans[2].Seg {
		t.Fatalf("same transit chain, different segs: %d vs %d", spans[1].Seg, spans[2].Seg)
	}
}

// TestArenaReplace covers the three Replace paths (equal body, shrink in
// place, grow by append) and the dead-element accounting.
func TestArenaReplace(t *testing.T) {
	a := NewPathArena()
	other, _ := a.Replace(PathSpan{}, bgp.Path{5, 6, 9})
	old, _ := a.Replace(PathSpan{}, bgp.Path{1, 2, 3, 7})

	// Equal body, different prepend: slot reused, nothing freed.
	sp, freed := a.Replace(old, bgp.Path{1, 2, 3, 7, 7})
	if freed != 0 || sp.Off != old.Off || sp.Prep != 2 {
		t.Fatalf("equal-body replace: span %+v freed %d", sp, freed)
	}
	// Shrink: overwrites in place, frees the tail.
	sp2, freed := a.Replace(sp, bgp.Path{9, 7})
	if freed != 2 || sp2.Off != old.Off || sp2.Len != 1 {
		t.Fatalf("shrink replace: span %+v freed %d", sp2, freed)
	}
	// Grow: appends, abandoning the old slot entirely.
	grown := bgp.Path{1, 2, 3, 4, 5, 7}
	sp3, freed := a.Replace(sp2, grown)
	if freed != int(sp2.Len) || sp3.Off == sp2.Off {
		t.Fatalf("grow replace: span %+v freed %d", sp3, freed)
	}
	if got := a.Path(sp3); !got.Equal(grown) {
		t.Fatalf("grow replace decodes to %v", got)
	}
	// The untouched span survives every replacement.
	if got := a.Path(other); !got.Equal(bgp.Path{5, 6, 9}) {
		t.Fatalf("unrelated span corrupted: %v", got)
	}
}

// TestArenaCompact verifies compaction preserves live spans and reclaims
// dead space.
func TestArenaCompact(t *testing.T) {
	a := NewPathArena()
	paths := []bgp.Path{
		{1, 2, 9}, {3, 4, 5, 9}, {6, 9}, {7, 8, 9, 9},
	}
	spans := make([]PathSpan, len(paths))
	for i, p := range paths {
		spans[i], _ = a.Replace(PathSpan{}, p)
	}
	// Kill spans 0 and 2; compact the survivors.
	live := []*PathSpan{&spans[1], &spans[3]}
	before := a.Size()
	a.Compact(live)
	if a.Size() >= before {
		t.Fatalf("compact did not shrink: %d -> %d", before, a.Size())
	}
	if got := a.Path(spans[1]); !got.Equal(paths[1]) {
		t.Fatalf("span 1 after compact: %v", got)
	}
	if got := a.Path(spans[3]); !got.Equal(paths[3]) {
		t.Fatalf("span 3 after compact: %v", got)
	}
	wantSize := int(spans[1].Len + spans[3].Len)
	if a.Size() != wantSize {
		t.Fatalf("compacted size %d, want %d", a.Size(), wantSize)
	}
}

// TestResetInvalidationSemantics pins the aliasing rule: Reset drops span
// bodies but keeps the intern table, so seg ids (and SegBody) survive
// while re-extraction reuses storage.
func TestResetInvalidationSemantics(t *testing.T) {
	g := arenaTestGraph(t, 200, 7)
	victim := g.Tier1s()[0]
	res, err := Propagate(g, Announcement{Origin: victim, Prepend: 2})
	if err != nil {
		t.Fatal(err)
	}
	idx := allIndices(g)
	a := NewPathArena()
	first := res.PathsInto(a, idx, nil)
	segsBefore := make([]int32, len(first))
	for i, sp := range first {
		segsBefore[i] = sp.Seg
	}
	a.Reset()
	if a.Size() != 0 {
		t.Fatalf("Reset left %d body elements", a.Size())
	}
	second := res.PathsInto(a, idx, first[:0])
	for i, sp := range second {
		if sp.Seg != segsBefore[i] {
			t.Fatalf("AS %d: seg id changed across Reset: %d -> %d", i, segsBefore[i], sp.Seg)
		}
		if got, want := a.Path(sp), res.PathOfIdx(int32(i)); !got.Equal(want) {
			t.Fatalf("AS %d after Reset: %v, want %v", i, got, want)
		}
	}
}

var (
	arenaSinkSpans []PathSpan
)

// TestPathsIntoZeroAlloc pins the warmed extract-reset-extract loop at
// zero allocations, mirroring TestPropagateScratchZeroAlloc.
func TestPathsIntoZeroAlloc(t *testing.T) {
	g := arenaTestGraph(t, 800, 13)
	victim := g.Tier1s()[0]
	res, err := Propagate(g, Announcement{Origin: victim, Prepend: 3})
	if err != nil {
		t.Fatal(err)
	}
	monitors := allIndices(g)
	a := NewPathArena()
	spans := res.PathsInto(a, monitors, nil) // warm: grow buffers, intern every segment

	if avg := testing.AllocsPerRun(20, func() {
		a.Reset()
		arenaSinkSpans = res.PathsInto(a, monitors, spans[:0])
	}); avg != 0 {
		t.Errorf("warmed PathsInto allocates %.1f objects per run, want 0", avg)
	}
	spans = arenaSinkSpans
	if got, want := a.Path(spans[100]), res.PathOfIdx(100); !got.Equal(want) {
		t.Fatalf("post-pin decode mismatch: %v vs %v", got, want)
	}
}
