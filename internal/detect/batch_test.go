package detect

// Tests for the batched observation path behind asppserve (PR 10): the
// prefix shard map and the differential gate that pins sharded
// ObserveBatch to the serial per-update Observe over a
// realistic churn replay.

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/topology"
)

func TestPrefixShardProperties(t *testing.T) {
	counts := make([]int, 8)
	for i := 0; i < 4096; i++ {
		pfx := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		s := PrefixShard(pfx, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("PrefixShard(%v, 8) = %d out of range", pfx, s)
		}
		if again := PrefixShard(pfx, 8); again != s {
			t.Fatalf("PrefixShard not deterministic: %d then %d", s, again)
		}
		if one := PrefixShard(pfx, 1); one != 0 {
			t.Fatalf("PrefixShard(_, 1) = %d, want 0", one)
		}
		counts[s]++
	}
	// FNV over distinct prefixes should land in every shard, roughly
	// uniformly (loose bound: no shard under a quarter of fair share).
	for s, c := range counts {
		if c < 4096/8/4 {
			t.Errorf("shard %d got %d of 4096 prefixes — distribution badly skewed: %v", s, c, counts)
		}
	}
	// Bits participate in the hash: same address, different length.
	a := netip.MustParsePrefix("10.0.0.0/24")
	b := netip.MustParsePrefix("10.0.0.0/25")
	var differ bool
	for n := 2; n <= 64; n++ {
		if PrefixShard(a, n) != PrefixShard(b, n) {
			differ = true
			break
		}
	}
	if !differ {
		t.Error("prefix length never affects the shard — Bits not hashed?")
	}
}

// churnCorpus builds a ≥minUpdates churn replay over a generated
// topology — the same corpus shape asppserve's load generator replays.
func churnCorpus(t testing.TB, nAS int, seed int64, nMon, events, minUpdates int) ([]bgp.Update, []bgp.ASN, *topology.Graph) {
	t.Helper()
	cfg := topology.DefaultGenConfig(nAS)
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	if err != nil {
		t.Fatalf("AssignOrigins: %v", err)
	}
	monitors := g.TopByDegree(nMon)
	evs := collector.PlanChurn(origins, events, seed+1)
	if len(evs) == 0 {
		t.Fatal("no churn events planned")
	}
	updates, err := collector.ChurnStream(g, origins, evs, monitors, 4, nil)
	if err != nil {
		t.Fatalf("ChurnStream: %v", err)
	}
	if len(updates) < minUpdates {
		t.Fatalf("churn corpus has %d updates, need ≥%d — raise events", len(updates), minUpdates)
	}
	return updates, monitors, g
}

func sortAlarms(alarms []Alarm) {
	sort.Slice(alarms, func(i, j int) bool {
		a, b := alarms[i], alarms[j]
		if a.Confidence != b.Confidence {
			return a.Confidence < b.Confidence
		}
		if a.Suspect != b.Suspect {
			return a.Suspect < b.Suspect
		}
		if a.Monitor != b.Monitor {
			return a.Monitor < b.Monitor
		}
		if a.Witness != b.Witness {
			return a.Witness < b.Witness
		}
		return a.RemovedPads < b.RemovedPads
	})
}

// TestShardedBatchDifferential is the PR 10 verdict gate: replaying a
// ≥5k-update churn stream through prefix-sharded detectors via ObserveBatch
// (several flush chunk sizes) yields exactly the serial per-update
// Observe alarm multiset. Sharding by prefix is verdict-preserving
// because detection state never crosses prefixes; batching is
// verdict-preserving because only the route-table sweep is deferred. An
// insert-heavy growth stream (2,048 fresh prefixes of one template, every
// 64th attacked) goes through the same comparison: there every update adds
// a row, and the rows share a handful of routes.
func TestShardedBatchDifferential(t *testing.T) {
	churn, monitors, g := churnCorpus(t, 1500, 23, 40, 300, 5000)
	inserts, attack := growthTemplate(t, churn, monitors, g)
	for _, stream := range []struct {
		name    string
		updates []bgp.Update
	}{{"churn", churn}, {"growth", growthUpdates(nil, inserts, attack, 0, 2048)}} {
		updates := stream.updates
		serial := NewDetector(monitors, g)
		var want []Alarm
		for _, u := range updates {
			want = append(want, serial.Observe(u)...)
		}
		if len(want) == 0 {
			t.Fatalf("%s: serial replay raised no alarms — corpus does not exercise detection", stream.name)
		}
		sortAlarms(want)

		for _, chunk := range []int{1, 7, 64, 256} {
			// Partition the stream by shard, preserving per-shard order (what
			// the serve rings do), then flush each shard in chunk-sized runs.
			parts := make([][]bgp.Update, 5)
			for _, u := range updates {
				si := PrefixShard(u.Prefix, len(parts))
				parts[si] = append(parts[si], u)
			}
			var got []Alarm
			for _, part := range parts {
				d := NewDetector(monitors, g)
				for i := 0; i < len(part); i += chunk {
					j := i + chunk
					if j > len(part) {
						j = len(part)
					}
					got = d.ObserveBatch(part[i:j], got)
				}
			}
			sortAlarms(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, chunk %d: sharded ObserveBatch alarms diverge from serial Observe\nsharded %d alarms, serial %d", stream.name, chunk, len(got), len(want))
			}
		}
		t.Logf("%s: %d updates, differential held: %d alarms across all chunkings", stream.name, len(updates), len(want))
	}
}

// TestObserveBatchZeroAlloc pins the warmed batched path at zero
// allocations — the asppserve acceptance criterion. Same scenario as
// TestDetectorObserveZeroAlloc, driven through ObserveBatch with a
// caller-owned alarm buffer.
func TestObserveBatchZeroAlloc(t *testing.T) {
	prefix := netip.MustParsePrefix("10.0.0.0/24")
	d := NewDetector([]bgp.ASN{100, 200}, nil)
	pathA3 := bgp.Path{1, 2, 7, 7, 7}
	pathA2 := bgp.Path{1, 2, 7, 7}
	pathB := bgp.Path{3, 4, 8}
	warm := []bgp.Update{
		{Monitor: 200, Type: bgp.Announce, Prefix: prefix, Path: pathB},
		{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA3},
		{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA2},
		{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA3},
	}
	alarms := make([]Alarm, 0, 8)
	alarms = d.ObserveBatch(warm, alarms[:0])
	batch := []bgp.Update{
		{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA2}, // λ 3→2: trigger leg
		{Monitor: 100, Type: bgp.Announce, Prefix: prefix, Path: pathA3}, // λ 2→3: store leg
	}
	if avg := testing.AllocsPerRun(50, func() {
		alarms = d.ObserveBatch(batch, alarms[:0])
	}); avg != 0 {
		t.Errorf("warmed ObserveBatch allocates %.1f objects per run, want 0", avg)
	}
	if len(alarms) != 0 {
		t.Fatalf("unexpected alarms: %v", alarms)
	}

	// With the hint rules on: a churn cycle, one ObserveBatch per
	// same-prefix run, whose Possible alarms show the rules asked rels.
	// Each cycle empties the relationship memo first, so misses as well as
	// hits fall inside the measured runs. The corpus is
	// TestDetectorRouteTableSteadyChurn's, whose warm cycles never sweep.
	updates, monitors, g := churnCorpus(t, 1500, 23, 40, 300, 5000)
	var runs [][]bgp.Update
	for i, j := 0, 0; i < len(updates); i = j {
		for j = i + 1; j < len(updates) && updates[j].Prefix == updates[i].Prefix; j++ {
		}
		runs = append(runs, updates[i:j])
	}
	d, alarms = NewDetector(monitors, g), make([]Alarm, 0, 4096)
	memo, possible := d.rels.(*relMemo), 0
	cycle := func() {
		clear(memo.slots[:])
		possible = 0
		for _, r := range runs {
			alarms = d.ObserveBatch(r, alarms[:0])
			for _, a := range alarms {
				if a.Confidence == Possible {
					possible++
				}
			}
		}
	}
	cycle()
	cycle()
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("warmed churn cycle with rels allocates %.1f objects per run, want 0", avg)
	}
	if possible == 0 {
		t.Fatal("the churn cycle raised no Possible alarm: the hint rules were not exercised")
	}

	// A table that sweeps: without rels this small corpus's dead routes
	// outweigh its live ones about once a cycle, so maybeCompact runs and
	// the arena's Compact must sort its live spans in place.
	updates, monitors, _ = churnCorpus(t, 400, 31, 20, 40, 200)
	d, alarms = NewDetector(monitors, nil), make([]Alarm, 0, len(updates))
	sweeps := 0
	cycle = func() {
		for i := range updates {
			before := d.arena.Size()
			alarms = d.ObserveBatch(updates[i:i+1], alarms[:0])
			if d.arena.Size() < before {
				sweeps++
			}
		}
	}
	cycle()
	cycle()
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("warmed sweeping cycle allocates %.1f objects per run, want 0", avg)
	}
	if sweeps == 0 {
		t.Fatal("no cycle swept the route table: Compact was not exercised")
	}
}

// TestObserveBatchMatchesObserve pins the trivial contract: a batch of
// one behaves exactly like Observe, including alarm contents.
func TestObserveBatchMatchesObserve(t *testing.T) {
	updates, monitors, g := churnCorpus(t, 400, 31, 20, 40, 200)
	a := NewDetector(monitors, g)
	b := NewDetector(monitors, g)
	var buf []Alarm
	for i, u := range updates {
		want := a.Observe(u)
		buf = b.ObserveBatch(updates[i:i+1], buf[:0])
		got := buf
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("update %d: ObserveBatch %+v, Observe %+v", i, got, want)
		}
	}
}

// BenchmarkObserveChurn times the streaming rule on serve-churn's corpus:
// DefaultGenConfig(2000), its top 40 monitors by degree, PlanChurn(origins,
// 60, 2) and ChurnStream. One Detector is warmed with two cycles; each
// iteration is one more cycle, one ObserveBatch per same-prefix run.
func BenchmarkObserveChurn(b *testing.B) {
	updates, monitors, g := churnCorpus(b, 2000, 1, 40, 60, 1)
	var runs [][]bgp.Update
	for i, j := 0, 0; i < len(updates); i = j {
		for j = i + 1; j < len(updates) && updates[j].Prefix == updates[i].Prefix; j++ {
		}
		runs = append(runs, updates[i:j])
	}
	d, alarms := NewDetector(monitors, g), make([]Alarm, 0, 1024)
	cycle := func() {
		for _, r := range runs {
			alarms = d.ObserveBatch(r, alarms[:0])
		}
	}
	cycle()
	cycle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(updates)), "ns/update")
}
