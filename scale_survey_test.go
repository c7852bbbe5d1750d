package aspp

// Tables at vantage points, checked at the scale we run: the survey, the
// churn corpus and path collection propagate over their monitors' provider
// cone (routing.Vantage), ≈60 of internet80k's 80,000 rows. Gated behind
// ASPP_SCALE=1 like the other 80k tests (make scale-smoke).

import (
	"slices"
	"testing"

	"aspp/internal/collector"
	"aspp/internal/measure"
	"aspp/internal/routing"
)

// TestScale80kVantageRowsMatchFullKernel takes 50 of the survey's origins,
// spread over internet80k, each as announced and with its first provider's
// session withheld, and holds what the survey's monitors read off a
// restricted propagation to a whole-graph PropagateScratch: every monitor's
// path, hop for hop, and its prepend run.
func TestScale80kVantageRowsMatchFullKernel(t *testing.T) {
	scaleGate(t)
	g := internet80k(t)
	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	if err != nil {
		t.Fatal(err)
	}
	monitors := measure.DefaultMonitors(g, 30, 10, 1)
	v := routing.NewVantage(g, monitors)
	idx := make([]int32, len(monitors))
	for i, m := range monitors {
		idx[i], _ = g.Index(m)
	}
	s, fullS, arena := routing.NewScratch(), routing.NewScratch(), routing.NewPathArena()
	rows, routed := int64(0), 0
	for k := 0; k < 50; k++ {
		oc := origins[k*len(origins)/50]
		anns := []routing.Announcement{oc.Announcement, oc.Announcement}
		anns[1] = collector.ChurnEvent{Origin: oc.AS, Primary: g.Providers(oc.AS)[0]}.Failover(oc.Announcement)
		for _, ann := range anns {
			arena.Reset()
			got, err := v.PathsInto(ann, s, arena, nil)
			if err != nil {
				t.Fatalf("%v: Vantage.PathsInto: %v", oc.AS, err)
			}
			rows += s.RowsDown()
			full, err := routing.PropagateScratch(g, ann, fullS)
			if err != nil {
				t.Fatalf("%v: PropagateScratch: %v", oc.AS, err)
			}
			want := full.PathsInto(arena, idx, nil)
			for mi, w := range want {
				if sp := got[mi]; sp.Prep != w.Prep || sp.Origin != w.Origin || sp.Seg != w.Seg || !slices.Equal(arena.Body(sp), arena.Body(w)) {
					t.Errorf("origin %v (per-neighbor λ %v), monitor %v: restricted %v, whole-graph %v",
						oc.AS, ann.PerNeighbor, monitors[mi], arena.Path(sp), arena.Path(w))
				}
				if w.Prep > 0 {
					routed++
				}
			}
		}
	}
	if routed < 50*len(monitors) {
		t.Fatalf("only %d routed monitor rows compared", routed)
	}
	if perCall := rows / 100; perCall < int64(len(monitors)) || perCall > 400 {
		t.Errorf("a restricted propagation emitted %d rows on average, want the monitors' cone (tens of rows, not %d)", perCall, g.NumASes())
	}
	t.Logf("%d routed monitor rows equal; %d phase-3 rows per restricted propagation, %d per whole-graph one", routed, rows/100, fullS.RowsDown())
}
