package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"aspp/internal/topology"
)

func batchTestGraph(t testing.TB, n int, seed int64) *topology.Graph {
	t.Helper()
	cfg := topology.DefaultGenConfig(n)
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g
}

// cloneLanes detaches every lane of a BatchResult from its BatchScratch.
func cloneLanes(br *BatchResult) []*Result {
	out := make([]*Result, len(br.Lanes))
	for i, r := range br.Lanes {
		out[i] = r.Clone()
	}
	return out
}

// TestPropagateBatchLanePermutation: lanes are independent, so permuting
// the announcements must permute the results identically — lane i of the
// shuffled batch equals lane perm[i] of the original.
func TestPropagateBatchLanePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := batchTestGraph(t, 150, 9)
	anns := make([]Announcement, batchMaxLanes)
	for i := range anns {
		anns[i] = randomBatchAnn(rng, g)
	}
	bs := NewBatchScratch()
	br, err := PropagateBatch(g, anns, bs)
	if err != nil {
		t.Fatal(err)
	}
	want := cloneLanes(br)

	perm := rng.Perm(len(anns))
	shuffled := make([]Announcement, len(anns))
	for i, p := range perm {
		shuffled[i] = anns[p]
	}
	br2, err := PropagateBatch(g, shuffled, bs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range perm {
		compareResults(t, g, br2.Lanes[i], want[p], fmt.Sprintf("lane %d (orig %d)", i, p))
		if t.Failed() {
			t.Fatalf("lane permutation changed lane %d's outcome", i)
		}
	}
}

// TestPropagateBatchSplitInvariance: one K=64 call must equal two K=32
// calls over the same announcements — chunking and batch width are
// scheduling choices, never semantic ones.
func TestPropagateBatchSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := batchTestGraph(t, 180, 31)
	anns := make([]Announcement, batchMaxLanes)
	for i := range anns {
		anns[i] = randomBatchAnn(rng, g)
	}
	bs := NewBatchScratch()
	br, err := PropagateBatch(g, anns, bs)
	if err != nil {
		t.Fatal(err)
	}
	want := cloneLanes(br)
	for _, half := range []struct{ lo, hi int }{{0, 32}, {32, 64}} {
		hr, err := PropagateBatch(g, anns[half.lo:half.hi], bs)
		if err != nil {
			t.Fatal(err)
		}
		for i, lane := range hr.Lanes {
			compareResults(t, g, lane, want[half.lo+i], fmt.Sprintf("half [%d:%d) lane %d", half.lo, half.hi, i))
			if t.Failed() {
				t.Fatalf("K=32 split diverged from the K=64 batch at lane %d", half.lo+i)
			}
		}
	}
}

// TestPropagateBatchSingleLane: K=1 is definitionally PropagateScratch.
func TestPropagateBatchSingleLane(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := batchTestGraph(t, 200, 61)
	bs := NewBatchScratch()
	serial := NewScratch()
	for i := 0; i < 40; i++ {
		ann := randomBatchAnn(rng, g)
		br, err := PropagateBatch(g, []Announcement{ann}, bs)
		if err != nil {
			t.Fatalf("ann %d: %v", i, err)
		}
		want, err := PropagateScratch(g, ann, serial)
		if err != nil {
			t.Fatalf("ann %d: serial: %v", i, err)
		}
		compareResults(t, g, br.Lanes[0], want, fmt.Sprintf("ann %d origin %v", i, ann.Origin))
		if t.Failed() {
			t.Fatalf("K=1 batch diverged from PropagateScratch at ann %d", i)
		}
	}
}

// FuzzPropagateBatch drives PropagateBatch with fuzzed lane counts (K up
// to 66, crossing the 64-lane chunk boundary), topology sizes and
// announcement mixes: it must never panic and every lane must agree with
// the serial engine. Wired into `make fuzz-smoke`.
func FuzzPropagateBatch(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))   // K=1
	f.Add(int64(42), uint8(16), uint8(3)) // K=17
	f.Add(int64(7), uint8(63), uint8(1))  // K=64: full chunk
	f.Add(int64(99), uint8(64), uint8(7)) // K=65: ragged second chunk
	f.Add(int64(-3), uint8(200), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, kSel, nSel uint8) {
		k := 1 + int(kSel)%66
		cfg := topology.DefaultGenConfig(60 + int(nSel)%80)
		cfg.Seed = seed
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		anns := make([]Announcement, k)
		for i := range anns {
			anns[i] = randomBatchAnn(rng, g)
		}
		br, err := PropagateBatch(g, anns, NewBatchScratch())
		if err != nil {
			t.Fatalf("PropagateBatch: %v", err)
		}
		serial := NewScratch()
		for l := range anns {
			want, err := PropagateScratch(g, anns[l], serial)
			if err != nil {
				t.Fatalf("lane %d: serial: %v", l, err)
			}
			compareResults(t, g, br.Lanes[l], want, fmt.Sprintf("lane %d", l))
		}
	})
}
