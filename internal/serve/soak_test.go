package serve

import (
	"os"
	"testing"
	"time"
)

// TestServeSoakMemoryPlateau is the PR 9/10 retention gate on the
// serving path: replaying the churn corpus for many rounds, the
// detection state (MemoryBytes: arenas + route tables + id rows) and the
// queue-occupancy watermark must plateau after warmup. The detector's
// table is keyed by (prefix, monitor) and every round revisits the same
// key set, so steady state means the route-table sweep plus arena
// compaction is keeping pace with path churn; monotonic growth here is a
// leak. Budget is wall-clock bounded (~600ms default; ASPP_SOAK=5s etc.
// extends) and the test runs under -race in CI.
func TestServeSoakMemoryPlateau(t *testing.T) {
	budget := 600 * time.Millisecond
	if s := os.Getenv("ASPP_SOAK"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad ASPP_SOAK %q: %v", s, err)
		}
		budget = d
	}
	if testing.Short() {
		budget = 200 * time.Millisecond
	}

	updates, monitors, g := loadCorpus(t, 800, 77, 30, 60)
	p, err := NewPipeline(Config{Shards: 2, Monitors: monitors, Rels: g})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()

	round := int64(2 * len(updates)) // two full corpus passes per round
	// Warmup: two rounds to populate every (prefix, monitor) slot and let
	// arena slabs and ring paths reach steady capacity.
	for i := 0; i < 2; i++ {
		if _, err := p.RunLoad(updates, round); err != nil {
			t.Fatal(err)
		}
	}
	warmMem := p.MemoryBytes()
	if warmMem <= 0 {
		t.Fatalf("warmup MemoryBytes = %d", warmMem)
	}

	deadline := time.Now().Add(budget)
	rounds := 0
	var midMem, midPeak int64
	for time.Now().Before(deadline) || rounds < 4 {
		if _, err := p.RunLoad(updates, round); err != nil {
			t.Fatal(err)
		}
		rounds++
		if rounds == 2 {
			midMem = p.MemoryBytes()
			midPeak = p.Stats().QueuePeak
		}
		if rounds >= 1000 {
			break
		}
	}
	endMem := p.MemoryBytes()
	endStats := p.Stats()
	t.Logf("soak: %d rounds × %d updates; mem warm %d → mid %d → end %d bytes; queue peak mid %d → end %d",
		rounds, round, warmMem, midMem, endMem, midPeak, endStats.QueuePeak)

	// Plateau: post-warmup memory may settle but not keep growing.
	if float64(endMem) > 1.5*float64(warmMem) {
		t.Fatalf("memory grew %d → %d bytes (>1.5×) over %d rounds — retention leak", warmMem, endMem, rounds)
	}
	if midMem > 0 && float64(endMem) > 1.1*float64(midMem) {
		t.Fatalf("memory still rising late in the soak: mid %d → end %d bytes", midMem, endMem)
	}
	// Queue watermark: bounded by ring capacity and flat after mid-soak
	// (the producers always fill to the same high-water mark).
	if endStats.QueuePeak > int64(p.cfg.Depth) {
		t.Fatalf("queue peak %d exceeds ring depth %d", endStats.QueuePeak, p.cfg.Depth)
	}
	if endStats.Dropped != 0 {
		t.Fatalf("soak dropped %d updates under block policy", endStats.Dropped)
	}
}
