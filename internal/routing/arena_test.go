package routing

import (
	"fmt"
	"testing"
	"unsafe"

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
	sp := a.Store(p)
	got := a.PathWith(99, sp)
	want := p.Prepend(99, 1)
	if !got.Equal(want) {
		t.Fatalf("PathWith = %v, want %v", got, want)
	}
	if a.PathWith(99, PathSpan{Seg: -1}) != nil {
		t.Fatal("PathWith on empty span should be nil")
	}
}

// TestArenaPutRoundTrip exercises raw-path storage (Store, as the detector
// stores a route on first sight), including paths with
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
		spans[i] = a.Store(p)
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

// TestPathSpanHoldsLongRuns: a span counts its origin run in 32 bits, so a
// path ending in 65,536 copies round-trips, and the span stays 20 bytes.
func TestPathSpanHoldsLongRuns(t *testing.T) {
	if size := unsafe.Sizeof(PathSpan{}); size != 20 {
		t.Errorf("PathSpan is %d bytes, want 20", size)
	}
	long := make(bgp.Path, 1+1<<16)
	for i := range long {
		long[i] = 7
	}
	long[0] = 1
	a := NewPathArena()
	if got := a.Path(a.Store(long)); !got.Equal(long) {
		t.Errorf("round trip reads %d ASNs, want %d", len(got), len(long))
	}
}

// TestArenaStore covers the store-once contract: Store appends the body at
// the arena's end and interns its transit chain, a prepend-count-only
// change is a body of its own on the same segment, and no store moves a
// body stored earlier.
func TestArenaStore(t *testing.T) {
	a := NewPathArena()
	other := a.Store(bgp.Path{5, 6, 9})
	p := bgp.Path{1, 2, 2, 3, 7, 7}
	bodies, size := len(a.buf), a.Size()
	sp := a.Store(p)
	if sp.Off != int32(bodies) || sp.Len != 4 || sp.Prep != 2 || sp.Origin != 7 || a.Size() != size+4+3 {
		t.Fatalf("Store %+v did not append body and segment at %d (arena %d -> %d elements)", sp, bodies, size, a.Size())
	}
	if got := bgp.Path(a.SegBody(sp.Seg)); !got.Equal(bgp.Path{1, 2, 3}) {
		t.Fatalf("Store interned %v, want the collapsed chain 1 2 3", got)
	}
	// Equal body, different prepend: the same segment, a body of its own.
	sp2 := a.Store(bgp.Path{1, 2, 2, 3, 7})
	if sp2.Off == sp.Off || sp2.Seg != sp.Seg || sp2.Prep != 1 || a.Size() != size+4+3+4 {
		t.Fatalf("prepend-only store: %+v after %+v, arena %d elements", sp2, sp, a.Size())
	}
	for _, c := range []struct {
		sp   PathSpan
		want bgp.Path
	}{{other, bgp.Path{5, 6, 9}}, {sp, p}, {sp2, bgp.Path{1, 2, 2, 3, 7}}} {
		if got := a.Path(c.sp); !got.Equal(c.want) {
			t.Fatalf("span %+v decodes to %v, want %v", c.sp, got, c.want)
		}
	}
}

// TestArenaCompact verifies compaction preserves live spans, renumbers
// their segments and reclaims dead bodies and segments: a chain only dead
// spans used is interned afresh after it.
func TestArenaCompact(t *testing.T) {
	a := NewPathArena()
	paths := []bgp.Path{
		{1, 2, 9}, {3, 4, 5, 9}, {6, 9}, {7, 8, 9, 9}, {3, 4, 4, 5, 9},
	}
	spans := make([]PathSpan, len(paths))
	for i, p := range paths {
		spans[i] = a.Store(p)
	}
	// Kill spans 0 and 2; compact the survivors, two of which share a chain.
	live := []*PathSpan{&spans[4], &spans[1], &spans[3]}
	before := a.Size()
	a.Compact(live)
	if a.Size() >= before {
		t.Fatalf("compact did not shrink: %d -> %d", before, a.Size())
	}
	for _, i := range []int{1, 3, 4} {
		if got := a.Path(spans[i]); !got.Equal(paths[i]) {
			t.Fatalf("span %d after compact: %v", i, got)
		}
	}
	if spans[1].Seg != 0 || spans[4].Seg != 0 || spans[3].Seg != 1 || len(a.segs) != 2 {
		t.Fatalf("segments after compact: %d, %d, %d of %d; want 0, 1, 0 of 2", spans[1].Seg, spans[3].Seg, spans[4].Seg, len(a.segs))
	}
	if got := bgp.Path(a.SegBody(spans[3].Seg)); !got.Equal(bgp.Path{7, 8}) {
		t.Fatalf("span 3's segment after compact: %v", got)
	}
	wantSize := int(spans[1].Len+spans[3].Len+spans[4].Len) + 3 + 2
	if a.Size() != wantSize {
		t.Fatalf("compacted size %d, want %d", a.Size(), wantSize)
	}
	if id := a.Intern([]bgp.ASN{7, 8}); id != spans[3].Seg {
		t.Fatalf("live chain 7 8 interned as %d after compact, its span holds %d", id, spans[3].Seg)
	}
	if id := a.Intern([]bgp.ASN{1, 2}); id != 2 {
		t.Fatalf("dead chain 1 2 interned as %d after compact, want the next id, 2", id)
	}
}

// TestResetInvalidationSemantics pins the aliasing rule: Reset empties the
// bodies and the intern table, so ids restart in first-sight order — an
// identical re-extraction reproduces them — and a span from before the Reset
// names nothing: after a different extraction its Seg may name another chain.
func TestResetInvalidationSemantics(t *testing.T) {
	g := arenaTestGraph(t, 200, 7)
	results := make([]*Result, 2)
	for i, victim := range g.Tier1s()[:2] {
		r, err := Propagate(g, Announcement{Origin: victim, Prepend: 2})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	idx := allIndices(g)
	a := NewPathArena()
	first := results[0].PathsInto(a, idx, nil)
	chains := make([]string, len(first))
	for i, sp := range first {
		if sp.Seg >= 0 {
			chains[i] = fmt.Sprint(a.SegBody(sp.Seg))
		}
	}
	a.Reset()
	if a.Size() != 0 || len(a.segs) != 0 {
		t.Fatalf("Reset left %d elements and %d segments", a.Size(), len(a.segs))
	}
	second := results[0].PathsInto(a, idx, nil)
	for i, sp := range second {
		if sp != first[i] {
			t.Fatalf("AS %d: identical re-extraction gave span %+v, first round %+v", i, sp, first[i])
		}
		if got, want := a.Path(sp), results[0].PathOfIdx(int32(i)); !got.Equal(want) {
			t.Fatalf("AS %d after Reset: %v, want %v", i, got, want)
		}
	}
	a.Reset()
	results[1].PathsInto(a, idx, nil)
	renamed := 0
	for i, sp := range first {
		if sp.Seg >= 0 && (int(sp.Seg) >= len(a.segs) || fmt.Sprint(a.SegBody(sp.Seg)) != chains[i]) {
			renamed++
		}
	}
	if renamed == 0 {
		t.Fatal("every first-round segment id still names its chain after a Reset and another victim's extraction")
	}
}

// TestPathArenaResetDropsSegments: an arena reused round after round is as
// large as its largest round, not the sum of them. Each of 1,000 rounds
// extracts a different victim's routes at every AS; after each, every store
// of the reused arena (bodies, segment chains, segment spans, index) is at or
// below that store's largest footprint in any one round on its own, so
// MemoryBytes is at most their sum. A capacity depends on the first append
// that sized it, so a round's own footprint is taken on a fresh arena that
// extracted round 0 first, as the reused one did.
func TestPathArenaResetDropsSegments(t *testing.T) {
	g := arenaTestGraph(t, 1200, 5)
	idx := allIndices(g)
	victims := g.ASNs()[:1000]
	first, err := Propagate(g, Announcement{Origin: victims[0], Prepend: 1})
	if err != nil {
		t.Fatal(err)
	}
	stores := func(a *PathArena) [4]int64 {
		return [4]int64{sliceBytes(a.buf), sliceBytes(a.segBuf), sliceBytes(a.segs), a.segIdx.MemoryBytes()}
	}
	s, a := NewScratch(), NewPathArena()
	var spans []PathSpan
	var largest [4]int64
	for round, victim := range victims {
		r, err := PropagateScratch(g, Announcement{Origin: victim, Prepend: 1}, s)
		if err != nil {
			t.Fatal(err)
		}
		own := NewPathArena()
		first.PathsInto(own, idx, nil)
		own.Reset()
		r.PathsInto(own, idx, nil)
		for i, b := range stores(own) {
			largest[i] = max(largest[i], b)
		}

		a.Reset()
		if a.Size() != 0 {
			t.Fatalf("round %d: Reset left %d elements", round, a.Size())
		}
		spans = r.PathsInto(a, idx, spans[:0])
		for i, b := range stores(a) {
			if b > largest[i] {
				t.Fatalf("round %d: reused arena's store %d holds %d B, its largest single round %d B", round, i, b, largest[i])
			}
		}
	}
	bound := int64(unsafe.Sizeof(*a)) + largest[0] + largest[1] + largest[2] + largest[3]
	if got := a.MemoryBytes(); got > bound {
		t.Fatalf("reused arena holds %d B after %d rounds, its stores' largest rounds sum to %d B", got, len(victims), bound)
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
