package relinfer

import (
	"reflect"
	"strings"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// TestCollectPathsPropagationErrorReturned injects an origin that is not
// in the topology so routing.Propagate fails inside the worker fan-out.
// The failure must come back as an error naming the origin — never as a
// worker panic killing the process.
func TestCollectPathsPropagationErrorReturned(t *testing.T) {
	g, err := topology.Generate(topology.DefaultGenConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	origins := append(g.TopByDegree(5), bgp.ASN(1<<30)) // last origin invalid
	monitors := g.TopByDegree(5)
	for _, workers := range []int{1, 4} {
		_, cerr := CollectPaths(g, origins, monitors, workers)
		if cerr == nil {
			t.Fatalf("workers=%d: invalid origin accepted", workers)
		}
		if !strings.Contains(cerr.Error(), "propagate") {
			t.Fatalf("workers=%d: err=%v, want a propagation error", workers, cerr)
		}
	}
}

// TestSampleOriginsSpreadsAcrossGraph pins the fix for the degenerate
// integer step: with n > len/2 the old step=len/n collapsed to 1 and the
// sample was just the first-n prefix of ASNs(). The picks must be distinct
// and span the whole list.
func TestSampleOriginsSpreadsAcrossGraph(t *testing.T) {
	g, err := topology.Generate(topology.DefaultGenConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	asns := g.ASNs()
	n := 60 // > len/2: the old code returned asns[:60]
	got := SampleOrigins(g, n)
	if len(got) != n {
		t.Fatalf("len=%d, want %d", len(got), n)
	}
	seen := make(map[bgp.ASN]bool, n)
	for _, a := range got {
		if seen[a] {
			t.Fatalf("duplicate pick %v", a)
		}
		seen[a] = true
	}
	// The last pick must come from the tail of the list, not the prefix.
	if want := asns[(n-1)*len(asns)/n]; got[n-1] != want {
		t.Fatalf("last pick %v, want %v (index %d)", got[n-1], want, (n-1)*len(asns)/n)
	}
	if got[n-1] == asns[n-1] && got[0] == asns[0] && got[1] == asns[1] {
		t.Fatal("sample looks like the first-n prefix; picks did not spread")
	}
}

// TestCollectPathsMatchesFullTables: the paths harvested at the monitors
// from restricted propagations (routing.Vantage; skipped rows poisoned) are
// the ones whole-graph tables give, in the same order — with a monitor that
// is also an origin, one listed twice, a stub and an ASN outside the graph.
func TestCollectPathsMatchesFullTables(t *testing.T) {
	cfg := topology.DefaultGenConfig(500)
	cfg.Seed = 21
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	origins := SampleOrigins(g, 150)
	monitors := append(g.TopByDegree(15), origins[4], bgp.ASN(1<<30), origins[4])
	for _, a := range g.ASNs() {
		if g.IsStub(a) {
			monitors = append(monitors, a)
			break
		}
	}
	got, err := CollectPaths(g, origins, monitors, 3)
	if err != nil {
		t.Fatal(err)
	}
	var want []bgp.Path
	for _, o := range origins {
		res, err := routing.Propagate(g, routing.Announcement{Origin: o, Prepend: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range monitors {
			if p := res.PathOf(m); p != nil {
				want = append(want, p.Prepend(m, 1))
			}
		}
	}
	if len(want) < 2000 || !reflect.DeepEqual(got, want) {
		t.Fatalf("CollectPaths: %d paths, whole-graph tables give %d (or they differ in content)", len(got), len(want))
	}
}
