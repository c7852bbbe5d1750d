package experiment

import (
	"context"
	"testing"

	"aspp/internal/measure"
	"aspp/internal/relinfer"
)

// BenchmarkDetectionSweep times the detection sweep as `asppbench -exp fig13`
// runs it at n=4000: one draw of 200 effective attacks, watched by the three
// Fig. 13 columns (top-degree, random placement, top-degree under inferred
// relationships) at the default monitor counts plus fig14's latency set.
// The topology and the inference are built once, outside the timer, so
// `go test -bench DetectionSweep ./internal/experiment/` A/Bs the legs and
// the detection layer alone.
func BenchmarkDetectionSweep(b *testing.B) {
	g := expGraph(b, 4000, 1)
	paths, err := relinfer.CollectPaths(g, relinfer.SampleOrigins(g, 200), measure.DefaultMonitors(g, 30, 15, 1), 0)
	if err != nil {
		b.Fatal(err)
	}
	plain, err := relinfer.Gao(paths, relinfer.GaoConfig{})
	if err != nil {
		b.Fatal(err)
	}
	seeded, err := relinfer.Tier1Seeded(paths, g.Tier1s())
	if err != nil {
		b.Fatal(err)
	}
	inferred, err := relinfer.Consensus(paths, plain, seeded)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultDetectionConfig()
	cfg.LatencyMonitors = max(10, g.NumASes()*3/400)
	cfg.Columns = []DetectionColumn{
		{Placement: MonitorsTopDegree},
		{Placement: MonitorsRandom},
		{Placement: MonitorsTopDegree, Rels: inferred},
	}
	b.ResetTimer()
	for range b.N {
		if _, err := RunDetectionCtx(context.Background(), g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
