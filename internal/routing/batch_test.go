package routing

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// The lane API is a loop over the scalar kernels (batch.go). These tests
// hold every lane to its scalar call, row for row, after the whole call has
// run — so a lane that overwrote another's slot shows — on one BatchScratch
// reused across lane widths, graph sizes and schedules.

var allocSinkBatch *BatchResult

// randomBatchAnn draws one no-attack announcement: any-tier origin,
// λ ∈ 1..8, sometimes per-neighbor prepending or a withheld provider session.
func randomBatchAnn(rng *rand.Rand, g *topology.Graph) Announcement {
	asns := g.ASNs()
	ann := Announcement{Origin: asns[rng.Intn(len(asns))], Prepend: 1 + rng.Intn(8)}
	provs := g.Providers(ann.Origin)
	if rng.Intn(3) == 0 && len(provs) > 0 {
		ann.PerNeighbor = map[bgp.ASN]int{provs[rng.Intn(len(provs))]: 1 + rng.Intn(8)}
	}
	if rng.Intn(4) == 0 && len(provs) > 1 {
		ann.Withhold = map[bgp.ASN]bool{provs[rng.Intn(len(provs))]: true}
	}
	return ann
}

func randomBatchAnns(rng *rand.Rand, g *topology.Graph, k int) []Announcement {
	anns := make([]Announcement, k)
	for i := range anns {
		anns[i] = randomBatchAnn(rng, g)
	}
	return anns
}

// randomAttackLanes draws count attack lanes over g in groups of 1–6 that
// share one baseline Result, each attacker reachable in it, follow and
// violate export and KeepPrepend 1–2 mixed.
func randomAttackLanes(t testing.TB, rng *rand.Rand, g *topology.Graph, count int) []AttackLane {
	t.Helper()
	asns := g.ASNs()
	lanes := make([]AttackLane, 0, count)
	for len(lanes) < count {
		ann := randomBatchAnn(rng, g)
		base, err := Propagate(g, ann)
		if err != nil {
			t.Fatalf("baseline for origin %v: %v", ann.Origin, err)
		}
		for group := 1 + rng.Intn(6); group > 0 && len(lanes) < count; group-- {
			m := asns[rng.Intn(len(asns))]
			for tries := 0; (m == ann.Origin || !base.Reachable(m)) && tries < 100; tries++ {
				m = asns[rng.Intn(len(asns))]
			}
			if m == ann.Origin || !base.Reachable(m) {
				break // degenerate baseline; draw a fresh announcement
			}
			atk := Attacker{AS: m, KeepPrepend: 1 + rng.Intn(2), ViolateValleyFree: rng.Intn(2) == 0}
			lanes = append(lanes, AttackLane{Ann: ann, Atk: atk, Baseline: base})
		}
	}
	return lanes
}

// checkBatch runs anns as one PropagateBatch call on bs and holds each lane
// to PropagateScratch.
func checkBatch(t *testing.T, g *topology.Graph, bs *BatchScratch, anns []Announcement, label string) {
	t.Helper()
	br, err := PropagateBatch(g, anns, bs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	serial := NewScratch()
	for l, lane := range br.Lanes {
		want, err := PropagateScratch(g, anns[l], serial)
		if err != nil {
			t.Fatalf("%s lane %d: %v", label, l, err)
		}
		if len(lane.Class) != g.NumASes() || lane.Via != nil {
			t.Fatalf("%s lane %d: %d rows, Via %v", label, l, len(lane.Class), lane.Via != nil)
		}
		compareResults(t, g, lane, want, fmt.Sprintf("%s lane %d", label, l))
		if t.Failed() {
			t.FailNow()
		}
	}
}

// checkAttackBatch runs lanes as one PropagateAttackDeltaBatch call on bs and
// holds each lane to PropagateAttackDelta and the full kernel, Via included.
func checkAttackBatch(t *testing.T, g *topology.Graph, bs *BatchScratch, lanes []AttackLane, label string) {
	t.Helper()
	br, err := PropagateAttackDeltaBatch(g, lanes, bs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	serial := NewScratch()
	for l, lane := range br.Lanes {
		ll := fmt.Sprintf("%s lane %d", label, l)
		want, err := PropagateAttackDelta(g, lanes[l].Ann, lanes[l].Atk, lanes[l].Baseline, serial)
		if err != nil {
			t.Fatalf("%s: delta: %v", ll, err)
		}
		if len(lane.Via) != g.NumASes() {
			t.Fatalf("%s: Via has %d rows", ll, len(lane.Via))
		}
		compareResults(t, g, lane, want, ll+" vs delta")
		full, err := PropagateAttackScratch(g, lanes[l].Ann, lanes[l].Atk, lanes[l].Baseline, serial)
		if err != nil {
			t.Fatalf("%s: full: %v", ll, err)
		}
		compareResults(t, g, lane, full, ll+" vs full")
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestPropagateBatchDifferential: widths 1..70, duplicated announcements,
// three graph sizes, one BatchScratch.
func TestPropagateBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	bs := NewBatchScratch()
	for trial, n := range []int{200, 80, 150} {
		g := arenaTestGraph(t, n, rng.Int63())
		pool := randomBatchAnns(rng, g, 70)
		pool[9], pool[40] = pool[3], pool[3]
		for _, k := range []int{1, 2, 3, 17, 64, 70} {
			start := rng.Intn(len(pool) - k + 1)
			checkBatch(t, g, bs, pool[start:start+k], fmt.Sprintf("trial %d K=%d", trial, k))
		}
	}
}

// TestPropagateBatchSingleLane: one lane is PropagateScratch, on a graph with
// sibling links too — a lane is a full-kernel call.
func TestPropagateBatchSingleLane(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g, _ := graftSiblings(t, arenaTestGraph(t, 200, 61), rng)
	bs := NewBatchScratch()
	for i := 0; i < 20; i++ {
		checkBatch(t, g, bs, randomBatchAnns(rng, g, 1), fmt.Sprintf("ann %d", i))
	}
}

// TestPropagateBatchLanePermutation: a shuffled batch after the original.
func TestPropagateBatchLanePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := arenaTestGraph(t, 150, 9)
	anns := randomBatchAnns(rng, g, maxLanes)
	bs := NewBatchScratch()
	checkBatch(t, g, bs, anns, "original")
	rng.Shuffle(len(anns), func(i, j int) { anns[i], anns[j] = anns[j], anns[i] })
	checkBatch(t, g, bs, anns, "shuffled")
}

// TestPropagateBatchSplitInvariance: a 64-lane batch, then its two halves.
func TestPropagateBatchSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := arenaTestGraph(t, 180, 31)
	anns := randomBatchAnns(rng, g, maxLanes)
	bs := NewBatchScratch()
	checkBatch(t, g, bs, anns, "K=64")
	checkBatch(t, g, bs, anns[:32], "first half")
	checkBatch(t, g, bs, anns[32:], "second half")
}

// TestBatchShrinkRegrow: the slots follow the graph down and back up, and
// more lanes than slots reallocates them mid-sequence.
func TestBatchShrinkRegrow(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	big, small := arenaTestGraph(t, 500, 29), arenaTestGraph(t, 120, 7)
	bs := NewBatchScratch()
	for i, step := range []struct {
		g *topology.Graph
		k int
	}{{big, 8}, {small, 8}, {big, 8}, {big, 64}, {small, 17}, {big, 64}} {
		checkBatch(t, step.g, bs, randomBatchAnns(rng, step.g, step.k), fmt.Sprintf("step %d", i))
	}
}

// TestPropagateBatchZeroAlloc: warmed, a batch allocates nothing.
func TestPropagateBatchZeroAlloc(t *testing.T) {
	g := arenaTestGraph(t, 4000, 17)
	asns := g.ASNs()
	anns := make([]Announcement, maxLanes)
	for i := range anns {
		anns[i] = Announcement{Origin: asns[(i*131)%len(asns)], Prepend: 1 + i%8}
	}
	bs := NewBatchScratch()
	if _, err := PropagateBatch(g, anns, bs); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{8, 64} {
		if avg := testing.AllocsPerRun(5, func() {
			allocSinkBatch, allocSinkErr = PropagateBatch(g, anns[:k], bs)
		}); avg != 0 || allocSinkErr != nil {
			t.Errorf("warmed PropagateBatch K=%d allocates %.1f objects per run (err %v), want 0", k, avg, allocSinkErr)
		}
	}
}

// TestPropagateAttackDeltaBatchDifferential: widths 1..70, lanes sharing
// and not sharing a baseline, three graph sizes, one BatchScratch.
func TestPropagateAttackDeltaBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	bs := NewBatchScratch()
	for trial, n := range []int{200, 80, 150} {
		g := arenaTestGraph(t, n, rng.Int63())
		pool := randomAttackLanes(t, rng, g, 70)
		for _, k := range []int{1, 2, 8, 64, 70} {
			start := rng.Intn(len(pool) - k + 1)
			checkAttackBatch(t, g, bs, pool[start:start+k], fmt.Sprintf("trial %d K=%d", trial, k))
		}
	}
}

// TestPropagateAttackDeltaBatchRepeat: sixteen attackers over one baseline,
// twice, then rotated one slot — the scalar kernel's same-baseline repair
// runs between every pair of lanes.
func TestPropagateAttackDeltaBatchRepeat(t *testing.T) {
	g := arenaTestGraph(t, 200, 77)
	ann := Announcement{Origin: g.ASNs()[0], Prepend: 3}
	base := mustPropagate(t, g, ann)
	var lanes []AttackLane
	for _, m := range g.ASNs()[1:] {
		if len(lanes) < 16 && base.Reachable(m) {
			atk := Attacker{AS: m, KeepPrepend: 1 + len(lanes)%2, ViolateValleyFree: len(lanes)%3 == 0}
			lanes = append(lanes, AttackLane{Ann: ann, Atk: atk, Baseline: base})
		}
	}
	bs := NewBatchScratch()
	checkAttackBatch(t, g, bs, lanes, "pass 0")
	checkAttackBatch(t, g, bs, lanes, "pass 1")
	checkAttackBatch(t, g, bs, append(lanes[1:], lanes[0]), "rotated")
}

// TestPropagateAttackDeltaBatchLanePermutation: a shuffled batch after the
// original.
func TestPropagateAttackDeltaBatchLanePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := arenaTestGraph(t, 150, 13)
	lanes := randomAttackLanes(t, rng, g, maxLanes)
	bs := NewBatchScratch()
	checkAttackBatch(t, g, bs, lanes, "original")
	rng.Shuffle(len(lanes), func(i, j int) { lanes[i], lanes[j] = lanes[j], lanes[i] })
	checkAttackBatch(t, g, bs, lanes, "shuffled")
}

// TestPropagateAttackDeltaBatchSplitInvariance: a 64-lane batch, then its
// two halves.
func TestPropagateAttackDeltaBatchSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := arenaTestGraph(t, 180, 37)
	lanes := randomAttackLanes(t, rng, g, maxLanes)
	bs := NewBatchScratch()
	checkAttackBatch(t, g, bs, lanes, "K=64")
	checkAttackBatch(t, g, bs, lanes[:32], "first half")
	checkAttackBatch(t, g, bs, lanes[32:], "second half")
}

// TestPropagateAttackDeltaBatchValidation: a lane fails as its scalar call
// does, lane-indexed — a forged claim with errNeedsStrip — and a baseline
// borrowed from bs's own slots is refused, its Clone accepted.
func TestPropagateAttackDeltaBatchValidation(t *testing.T) {
	g := arenaTestGraph(t, 120, 5)
	ann := Announcement{Origin: g.ASNs()[0], Prepend: 2}
	base := mustPropagate(t, g, ann)
	good := AttackLane{Ann: ann, Baseline: base}
	for _, m := range g.ASNs()[1:] {
		if base.Reachable(m) {
			good.Atk = Attacker{AS: m, KeepPrepend: 1}
			break
		}
	}
	forged := good
	forged.Atk.Kind = AttackOriginHijack
	if _, err := PropagateAttackDeltaBatch(g, []AttackLane{good, forged}, nil); !errors.Is(err, errNeedsStrip) || !strings.Contains(err.Error(), "lane 1") {
		t.Errorf("forged lane: err = %v, want lane-1 errNeedsStrip", err)
	}
	wrong := good
	wrong.Baseline = mustPropagate(t, g, Announcement{Origin: good.Atk.AS, Prepend: 1})
	if _, err := PropagateAttackDeltaBatch(g, []AttackLane{wrong}, nil); err == nil || !strings.Contains(err.Error(), "different graph or origin") {
		t.Errorf("mismatched baseline: err = %v", err)
	}
	bs := NewBatchScratch()
	br, err := PropagateBatch(g, []Announcement{ann}, bs)
	if err != nil {
		t.Fatal(err)
	}
	borrowed := good
	borrowed.Baseline = br.Lanes[0]
	if _, err := PropagateAttackDeltaBatch(g, []AttackLane{borrowed}, bs); err == nil || !strings.Contains(err.Error(), "borrowed") {
		t.Errorf("scratch-borrowed baseline: err = %v", err)
	}
	borrowed.Baseline = br.Lanes[0].Clone()
	checkAttackBatch(t, g, bs, []AttackLane{borrowed}, "cloned baseline")
}

// TestPropagateAttackDeltaBatchZeroAlloc: warmed, a batch allocates nothing.
func TestPropagateAttackDeltaBatchZeroAlloc(t *testing.T) {
	g := arenaTestGraph(t, 4000, 9)
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{8, 64} {
		lanes := randomAttackLanes(t, rng, g, k)
		bs := NewBatchScratch()
		if _, err := PropagateAttackDeltaBatch(g, lanes, bs); err != nil {
			t.Fatalf("K=%d warmup: %v", k, err)
		}
		if avg := testing.AllocsPerRun(5, func() {
			allocSinkBatch, allocSinkErr = PropagateAttackDeltaBatch(g, lanes, bs)
		}); avg != 0 || allocSinkErr != nil {
			t.Errorf("warmed PropagateAttackDeltaBatch K=%d allocates %.1f objects per run (err %v), want 0", k, avg, allocSinkErr)
		}
	}
}

// TestAdaptiveLaneWidth pins the widths bench sizes its loops with: 64 at
// n=4000 and below, 3 at n=80000, monotone and within [1, 64] in between.
func TestAdaptiveLaneWidth(t *testing.T) {
	if AdaptiveLaneWidth(0) != maxLanes || AdaptiveLaneWidth(4000) != maxLanes || AdaptiveLaneWidth(80000) != 3 {
		t.Errorf("AdaptiveLaneWidth(0, 4000, 80000) = %d, %d, %d, want 64, 64, 3",
			AdaptiveLaneWidth(0), AdaptiveLaneWidth(4000), AdaptiveLaneWidth(80000))
	}
	prev := maxLanes
	for _, n := range []int{100, 4000, 20000, 80000, 1 << 22} {
		k := AdaptiveLaneWidth(n)
		if k < 1 || k > prev {
			t.Fatalf("AdaptiveLaneWidth(%d) = %d after %d", n, k, prev)
		}
		prev = k
	}
}

// FuzzPropagateBatch: fuzzed lane counts (up to 66), graph sizes and
// announcement mixes, every lane equal to its scalar call.
func FuzzPropagateBatch(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(42), uint8(16), uint8(3))
	f.Add(int64(7), uint8(63), uint8(1))
	f.Add(int64(99), uint8(64), uint8(7))
	f.Add(int64(-3), uint8(200), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, kSel, nSel uint8) {
		cfg := topology.DefaultGenConfig(60 + int(nSel)%80)
		cfg.Seed = seed
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		checkBatch(t, g, nil, randomBatchAnns(rng, g, 1+int(kSel)%66), "fuzz")
	})
}

// FuzzPropagateAttackDeltaBatch is FuzzPropagateBatch for attack lanes.
func FuzzPropagateAttackDeltaBatch(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(42), uint8(7), uint8(3))
	f.Add(int64(7), uint8(63), uint8(1))
	f.Add(int64(99), uint8(64), uint8(7))
	f.Add(int64(-3), uint8(200), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, kSel, nSel uint8) {
		cfg := topology.DefaultGenConfig(60 + int(nSel)%80)
		cfg.Seed = seed
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		checkAttackBatch(t, g, nil, randomAttackLanes(t, rng, g, 1+int(kSel)%66), "fuzz")
	})
}
