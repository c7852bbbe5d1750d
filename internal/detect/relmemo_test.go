package detect

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"aspp/internal/bgp"
	"aspp/internal/relinfer"
	"aspp/internal/topology"
)

// TestRelMemoMatchesQuerier holds a Detector's relationship memo to the
// querier it wraps, ground truth and inferred: every link of a 2,000-AS
// graph with grafted sibling links both ways, 20k sampled pairs, unknown
// ASNs, a == b and ASN 0, each asked twice, then runs of pairs that share
// one slot interleaved with repeats, so each answer is read back after its
// slot was taken and retaken. A memo that answered off the slot without
// comparing the pair would return a neighbour's answer here.
func TestRelMemoMatchesQuerier(t *testing.T) {
	cfg := topology.DefaultGenConfig(2000)
	cfg.Seed = 3
	base, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	asns := base.ASNs()
	rng := rand.New(rand.NewSource(9))
	b := topology.Rebuild(base)
	for grafted := 0; grafted < 8; {
		x, y := asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]
		if x != y && base.RelOf(x, y) == topology.RelNone {
			if err := b.AddS2S(x, y); err != nil {
				t.Fatal(err)
			}
			grafted++
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	paths, err := relinfer.CollectPaths(g, relinfer.SampleOrigins(g, 100), g.TopByDegree(30), 0)
	if err != nil {
		t.Fatal(err)
	}
	inferred, err := relinfer.Gao(paths, relinfer.GaoConfig{})
	if err != nil {
		t.Fatal(err)
	}

	pairs := [][2]bgp.ASN{{0, 0}, {0, asns[0]}, {asns[0], 0}, {asns[1], asns[1]}, {9999999, asns[2]}, {asns[2], 9999999}}
	for i := range int32(g.NumASes()) {
		for _, nb := range [][]int32{g.ProvidersIdx(i), g.CustomersIdx(i), g.PeersIdx(i), g.SiblingsIdx(i)} {
			for _, j := range nb {
				pairs = append(pairs, [2]bgp.ASN{g.ASNAt(i), g.ASNAt(j)})
			}
		}
	}
	for range 20000 {
		pairs = append(pairs, [2]bgp.ASN{asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]})
	}

	for _, q := range []struct {
		name string
		rels RelQuerier
	}{{"graph", g}, {"inferred", inferred}} {
		memo, ok := NewDetector(nil, q.rels).rels.(*relMemo)
		if !ok {
			t.Fatalf("%s: NewDetector did not wrap rels in a relMemo", q.name)
		}
		ask := func(p [2]bgp.ASN) {
			t.Helper()
			if got, want := memo.RelOf(p[0], p[1]), q.rels.RelOf(p[0], p[1]); got != want {
				t.Fatalf("%s: memo RelOf(%v, %v) = %v, querier says %v", q.name, p[0], p[1], got, want)
			}
		}
		for range 2 {
			for _, p := range pairs {
				ask(p)
			}
		}

		// Group the pairs by the slot each one writes on an empty memo, then
		// walk every slot holding three or more pairs with differing answers.
		fresh := &relMemo{q: q.rels}
		bySlot := map[int][][2]bgp.ASN{}
		for _, p := range pairs {
			fresh.RelOf(p[0], p[1])
			s := slices.IndexFunc(fresh.slots[:], func(e uint64) bool { return e != 0 })
			bySlot[s] = append(bySlot[s], p)
			fresh.slots[s] = 0
		}
		runs := 0
		for _, group := range bySlot {
			mixed := slices.ContainsFunc(group, func(p [2]bgp.ASN) bool {
				return q.rels.RelOf(p[0], p[1]) != q.rels.RelOf(group[0][0], group[0][1])
			})
			if len(group) < 3 || !mixed {
				continue
			}
			runs++
			for rep := range 3 {
				for i, p := range group {
					ask(p)
					ask(p)
					ask(group[(i+rep+1)%len(group)])
				}
			}
		}
		if runs < 10 {
			t.Fatalf("%s: only %d slots hold three or more pairs with differing answers; the eviction runs prove little", q.name, runs)
		}
		t.Logf("%s: %d pairs, %d distinct slots, %d mixed runs of three or more", q.name, len(pairs), len(bySlot), runs)
	}

	monitors := g.TopByDegree(10)
	bare, memoized := NewDetector(monitors, nil), NewDetector(monitors, g)
	if bare.rels != nil {
		t.Fatal("NewDetector(_, nil) set rels: the hint rules would run")
	}
	if got, want := memoized.MemoryBytes()-bare.MemoryBytes(), int64(unsafe.Sizeof(relMemo{})); got != want {
		t.Errorf("MemoryBytes with rels exceeds nil rels by %d, want the memo's %d bytes", got, want)
	}
}
