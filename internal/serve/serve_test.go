package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/detect"
	"aspp/internal/obs"
	"aspp/internal/topology"
)

// loadCorpus builds a churn replay corpus plus the monitor set and graph
// backing it — the pipeline's canonical input.
func loadCorpus(t testing.TB, nAS int, seed int64, nMon, events int) ([]bgp.Update, []bgp.ASN, *topology.Graph) {
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
		t.Fatal("no churn events")
	}
	updates, err := collector.ChurnStream(g, origins, evs, monitors, 4, nil)
	if err != nil {
		t.Fatalf("ChurnStream: %v", err)
	}
	if len(updates) == 0 {
		t.Fatal("empty churn corpus")
	}
	return updates, monitors, g
}

func testUpdate(i int) bgp.Update {
	return bgp.Update{
		Time:    uint64(i + 1),
		Monitor: bgp.ASN(100 + i%3),
		Type:    bgp.Announce,
		Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24),
		Path:    bgp.Path{bgp.ASN(100 + i%3), 42, bgp.ASN(7 + i%5)},
	}
}

func TestRingPushDrainWrap(t *testing.T) {
	r := newRing(5) // rounds to 8
	if len(r.slots) != 8 {
		t.Fatalf("%d slots, want 8", len(r.slots))
	}
	batch := make([]bgp.Update, 8)
	enq := make([]int64, 8)
	// Three full cycles to exercise cursor wrap.
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 8; i++ {
			u := testUpdate(cycle*8 + i)
			if !r.push(&u, int64(i), true, nil) {
				t.Fatalf("cycle %d push %d refused", cycle, i)
			}
		}
		if r.depth() != 8 {
			t.Fatalf("depth = %d, want 8", r.depth())
		}
		n := r.drain(batch, enq)
		if n != 8 {
			t.Fatalf("drain = %d, want 8", n)
		}
		for i := 0; i < 8; i++ {
			want := testUpdate(cycle*8 + i)
			if batch[i].Prefix != want.Prefix || !batch[i].Path.Equal(want.Path) || enq[i] != int64(i) {
				t.Fatalf("cycle %d slot %d: got %+v enq %d", cycle, i, batch[i], enq[i])
			}
		}
		r.advance(n)
	}
	if r.depth() != 0 {
		t.Fatalf("depth after drain = %d, want 0", r.depth())
	}
	if r.peak.Load() != 8 {
		t.Fatalf("peak = %d, want 8", r.peak.Load())
	}
}

func TestRingDropPolicy(t *testing.T) {
	r := newRing(2)
	u := testUpdate(0)
	if !r.push(&u, 0, false, nil) || !r.push(&u, 0, false, nil) {
		t.Fatal("pushes into empty ring refused")
	}
	for i := 0; i < 3; i++ {
		if r.push(&u, 0, false, nil) {
			t.Fatal("push into full ring accepted under drop policy")
		}
	}
	if r.depth() != 2 {
		t.Fatalf("depth = %d after refused pushes, want 2", r.depth())
	}
}

func TestRingBlockPolicyUnblocks(t *testing.T) {
	r := newRing(2)
	u := testUpdate(0)
	r.push(&u, 0, true, nil)
	r.push(&u, 0, true, nil)
	done := make(chan bool, 1)
	go func() {
		v := testUpdate(9)
		done <- r.push(&v, 7, true, nil)
	}()
	time.Sleep(5 * time.Millisecond) // producer should be spinning now
	select {
	case <-done:
		t.Fatal("blocked push returned before a slot freed")
	default:
	}
	batch := make([]bgp.Update, 1)
	enq := make([]int64, 1)
	r.drain(batch, enq)
	r.advance(1)
	if ok := <-done; !ok {
		t.Fatal("push failed after slot freed")
	}
	if r.depth() != 2 {
		t.Fatalf("depth = %d after the blocked push landed, want 2", r.depth())
	}
}

func TestRingBlockPolicyStops(t *testing.T) {
	r := newRing(2)
	u := testUpdate(0)
	r.push(&u, 0, true, nil)
	r.push(&u, 0, true, nil)
	var stopped atomic.Bool
	done := make(chan bool, 1)
	go func() { v := testUpdate(1); done <- r.push(&v, 0, true, stopped.Load) }()
	time.Sleep(2 * time.Millisecond)
	stopped.Store(true)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("stopped push reported success")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked push ignored stop")
	}
}

func TestHistBuckets(t *testing.T) {
	// Round-trip property: every value is bounded by its bucket's upper.
	for _, v := range []int64{0, 1, 15, 16, 17, 100, 1023, 1024, 1 << 20, 1 << 40, 1<<62 + 12345} {
		idx := bucketOf(v)
		if up := bucketUpper(idx); v > up {
			t.Fatalf("bucketUpper(bucketOf(%d)) = %d < value", v, up)
		}
		// Bounded relative error above the exact range: upper ≤ 1.5×v.
		if v >= 16 {
			if up := bucketUpper(idx); float64(up) > 1.5*float64(v) {
				t.Fatalf("bucket upper %d too loose for %d", up, v)
			}
		}
	}
	if bucketOf(-5) != 0 {
		t.Fatal("negative latency should clamp to bucket 0")
	}

	var h latencyHist
	for i := 0; i < 99; i++ {
		h.record(1000)
	}
	h.record(1 << 30)
	if got := h.count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	p50 := h.quantile(0.50)
	if p50 < 1000 || p50 > 1500 {
		t.Fatalf("p50 = %d, want ~1000", p50)
	}
	p999 := h.quantile(0.999)
	if p999 < 1<<30 {
		t.Fatalf("p99.9 = %d, want ≥ 2^30", p999)
	}
	var empty latencyHist
	if empty.quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestNewPipelineValidation(t *testing.T) {
	mons := []bgp.ASN{1}
	cases := []Config{
		{},                                    // no monitors
		{Monitors: mons, Shards: -1},          // negative
		{Monitors: mons, Depth: 8, Batch: 64}, // batch > depth
		{Monitors: mons, Policy: Policy(9)},   // bad policy
		{Monitors: mons, AlarmLog: -1},        // negative feed capacity
	}
	for i, cfg := range cases {
		if _, err := NewPipeline(cfg); err == nil {
			t.Errorf("case %d: NewPipeline(%+v) accepted invalid config", i, cfg)
		}
	}
	p, err := NewPipeline(Config{Monitors: mons})
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if p.Shards() < 1 || p.cfg.Depth != 4096 || p.cfg.Batch != 256 || p.cfg.Policy != Block {
		t.Fatalf("defaults wrong: %d shards, depth %d, batch %d, policy %v",
			p.Shards(), p.cfg.Depth, p.cfg.Batch, p.cfg.Policy)
	}
	if _, err := ParsePolicy("drop"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

// TestServeSmoke is the serving path's smoke gate: a short self-test load at
// the default ring depth under the block policy must lose nothing, alarm
// at least once, and (race detector off) sustain a minimum throughput.
func TestServeSmoke(t *testing.T) {
	updates, monitors, g := loadCorpus(t, 800, 42, 30, 60)
	counters := &obs.Counters{}
	p, err := NewPipeline(Config{
		Shards: 2, Monitors: monitors, Rels: g, Counters: counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()

	total := int64(200_000)
	if testing.Short() {
		total = 20_000
	}
	rep, err := p.RunLoad(updates, total)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serve-smoke: %d updates in %v (%.0f/s), p50 %dns p99 %dns, %d alarms",
		rep.Processed, rep.Elapsed.Round(time.Millisecond), rep.UpdatesPerSec, rep.P50Ns, rep.P99Ns, rep.Alarms)

	if rep.Dropped != 0 {
		t.Fatalf("dropped %d updates under block policy", rep.Dropped)
	}
	if rep.Accepted != total || rep.Processed != total {
		t.Fatalf("accepted %d processed %d, want %d", rep.Accepted, rep.Processed, total)
	}
	if rep.Alarms == 0 {
		t.Fatal("replay raised no alarms — load corpus not exercising detection")
	}
	if rep.P99Ns <= 0 {
		t.Fatal("no latency recorded")
	}
	const floor = 100_000 // updates/sec; conservative vs the ~1M/s benchmark
	if !raceEnabled && rep.UpdatesPerSec < floor {
		t.Errorf("throughput %.0f updates/s below smoke floor %d", rep.UpdatesPerSec, floor)
	}
	s := p.Stats()
	if s.Processed != total || s.Dropped != 0 || s.QueuePeak == 0 || s.MemoryBytes <= 0 {
		t.Fatalf("stats inconsistent: %+v", s)
	}
	cs := counters.Snapshot()
	if cs.ServeEnqueued != total || cs.ServeBatches == 0 || cs.Alarms != rep.Alarms {
		t.Fatalf("obs counters inconsistent: %+v", cs)
	}
}

// TestStatsConcurrentWithLoad is the /metrics-scrape-during-ingest
// interleaving: Stats and MemoryBytes run on a foreign goroutine while
// workers mutate detector state. Safe only because the detector
// footprints are read from worker-published atomics, never from the
// detectors themselves — under -race this pins that contract.
func TestStatsConcurrentWithLoad(t *testing.T) {
	updates, monitors, g := loadCorpus(t, 400, 23, 20, 30)
	p, err := NewPipeline(Config{Shards: 2, Monitors: monitors, Rels: g})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sawBad atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if p.Stats().MemoryBytes <= 0 || p.MemoryBytes() <= 0 {
				sawBad.Store(true)
				return
			}
		}
	}()
	total := int64(50_000)
	if testing.Short() {
		total = 10_000
	}
	if _, err := p.RunLoad(updates, total); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if sawBad.Load() {
		t.Fatal("mid-load memory reading was not positive")
	}
}

// TestRunLoadDropAccountingAcrossRuns pins per-run conservation: on a
// pipeline that already shed load, a second RunLoad must report its own
// drops, not the lifetime counter, so Offered == Accepted + Dropped
// holds for every run. Every drop is counted once, in the pipeline's
// Counters: Stats and /metrics read that count back, and it is the sum of
// the runs' drops.
func TestRunLoadDropAccountingAcrossRuns(t *testing.T) {
	updates, monitors, g := loadCorpus(t, 400, 7, 20, 30)
	counters := new(obs.Counters)
	p, err := NewPipeline(Config{
		Shards: 1, Depth: 16, Batch: 8, Policy: Drop, Monitors: monitors, Rels: g, Counters: counters,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()
	var dropped int64
	for run := 0; run < 3; run++ {
		rep, err := p.RunLoad(updates, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Accepted+rep.Dropped != rep.Offered {
			t.Fatalf("run %d: accepted %d + dropped %d != offered %d",
				run, rep.Accepted, rep.Dropped, rep.Offered)
		}
		if rep.Processed != rep.Accepted {
			t.Fatalf("run %d: processed %d != accepted %d", run, rep.Processed, rep.Accepted)
		}
		dropped += rep.Dropped
	}
	s, cs := p.Stats(), counters.Snapshot()
	if s.Dropped != dropped || cs.ServeDropped != dropped {
		t.Fatalf("Stats reads %d dropped, the counters %d; the runs dropped %d", s.Dropped, cs.ServeDropped, dropped)
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	if line := fmt.Sprintf("aspp_serve_dropped_total %d\n", dropped); !strings.Contains(httpGet(t, srv.URL+"/metrics"), line) {
		t.Fatalf("/metrics lacks %q", line)
	}
}

// TestRunLoadMatchesSerialDetector: RunLoad offers corpus[k % len(corpus)]
// for k < total, so at any shard count the pipeline raises exactly the
// alarms of one serial Detector fed that sequence, each attributed to its
// update's prefix. total is not a multiple of the corpus length, so the
// last pass stops part way through the corpus.
func TestRunLoadMatchesSerialDetector(t *testing.T) {
	type prefixAlarm struct {
		prefix netip.Prefix
		alarm  detect.Alarm
	}
	updates, monitors, g := loadCorpus(t, 400, 13, 20, 30)
	total := int64(2*len(updates) + len(updates)/3)
	serial := detect.NewDetector(monitors, g)
	want := make(map[prefixAlarm]int)
	var nWant int
	for k := int64(0); k < total; k++ {
		u := updates[k%int64(len(updates))]
		for _, a := range serial.Observe(u) {
			want[prefixAlarm{u.Prefix, a}]++
			nWant++
		}
	}
	if nWant == 0 {
		t.Fatal("premise broken: the serial replay raised no alarms")
	}
	for _, shards := range []int{1, 2, 3} {
		p, err := NewPipeline(Config{Shards: shards, Monitors: monitors, Rels: g, AlarmLog: nWant + 1})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		rep, err := p.RunLoad(updates, total)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Offered != total || rep.Processed != total {
			t.Fatalf("%d shards: offered %d, processed %d, want %d", shards, rep.Offered, rep.Processed, total)
		}
		got := make(map[prefixAlarm]int)
		evs := p.Alarms(nWant + 1)
		for _, ev := range evs {
			got[prefixAlarm{ev.Prefix, ev.Alarm}]++
		}
		if len(evs) != nWant || rep.Alarms != int64(nWant) || !maps.Equal(got, want) {
			t.Fatalf("%d shards: %d alarms in the feed, %d reported; the serial detector raised %d, multisets equal %v",
				shards, len(evs), rep.Alarms, nWant, maps.Equal(got, want))
		}
	}
	t.Logf("%d of %d updates: %d alarms at 1, 2 and 3 shards", total, len(updates), nWant)
}

// TestStatsDepthIsRingCapacity: Stats and /metrics report the ring's
// power-of-two capacity, which QueuePeak can reach, not the depth asked for.
func TestStatsDepthIsRingCapacity(t *testing.T) {
	p, err := NewPipeline(Config{Monitors: []bgp.ASN{1}, Depth: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Stats().Depth; d != 8192 || len(p.rings[0].slots) != 8192 {
		t.Fatalf("Stats reads depth %d for a ring of %d slots, want 8192", d, len(p.rings[0].slots))
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	if body := httpGet(t, srv.URL+"/metrics"); !strings.Contains(body, "aspp_serve_ring_depth 8192\n") {
		t.Fatalf("/metrics does not report the 8192-slot ring:\n%s", body)
	}
}

func TestPipelineDropPolicy(t *testing.T) {
	updates, monitors, g := loadCorpus(t, 400, 7, 20, 30)
	p, err := NewPipeline(Config{
		Shards: 1, Depth: 16, Batch: 8, Policy: Drop, Monitors: monitors, Rels: g,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()
	rep, err := p.RunLoad(updates, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted+rep.Dropped != rep.Offered {
		t.Fatalf("accepted %d + dropped %d != offered %d", rep.Accepted, rep.Dropped, rep.Offered)
	}
	if rep.Processed != rep.Accepted {
		t.Fatalf("processed %d != accepted %d", rep.Processed, rep.Accepted)
	}
	// A 16-deep ring against a full-speed producer must shed something;
	// if this ever fails the consumer outran a memcpy loop, which means
	// the clock is broken, not the pipeline.
	if rep.Dropped == 0 {
		t.Log("warning: no drops at depth 16 — unexpectedly fast consumer")
	}
}

// TestMetricsDetectorSizes: /metrics reports the shard detectors' prefix,
// row and route counts, summed from the gauges each worker publishes. Once
// the pipeline is closed, every worker has published its last batch, so the
// prefix and row counts equal those of one serial detector per shard fed
// the same updates, and the table holds some routes.
func TestMetricsDetectorSizes(t *testing.T) {
	const shards = 3
	updates, monitors, g := loadCorpus(t, 400, 13, 20, 30)
	p, err := NewPipeline(Config{Shards: shards, Monitors: monitors, Rels: g})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if _, err := p.RunLoad(updates, int64(len(updates))); err != nil {
		t.Fatal(err)
	}
	p.Close()
	var serial [shards]*detect.Detector
	var prefixes, rows int
	for i := range serial {
		serial[i] = detect.NewDetector(monitors, g)
	}
	for _, u := range updates {
		serial[detect.PrefixShard(u.Prefix, shards)].Observe(u)
	}
	for _, d := range serial {
		pf, r, _ := d.Sizes()
		prefixes, rows = prefixes+pf, rows+r
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/metrics")
	metric := func(name string) int64 {
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("/metrics %s: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("/metrics has no %s\n%s", name, body)
		return 0
	}
	if got := metric("aspp_detect_prefixes"); got != int64(prefixes) {
		t.Errorf("aspp_detect_prefixes %d, serial detectors hold %d", got, prefixes)
	}
	if got := metric("aspp_detect_rows"); got != int64(rows) {
		t.Errorf("aspp_detect_rows %d, serial detectors hold %d", got, rows)
	}
	if got := metric("aspp_detect_routes"); got <= 0 {
		t.Errorf("aspp_detect_routes %d after a churn replay", got)
	}
	if prefixes == 0 || rows <= shards {
		t.Fatalf("premise broken: %d prefixes on %d rows", prefixes, rows)
	}
}

// TestStatsCurrentAfterRunLoad: a worker publishes its gauges after every
// batch, before it releases the batch's slots, so once RunLoad has seen the
// rings drain, Stats reads every update's effect without waiting for Close.
// Its prefix and row counts are those of one serial detector per shard fed
// the same updates. Its route count is the shard detectors' own, read after
// Close: routes awaiting the sweep count too, so the count depends on where
// batches end, and a serial detector sweeps at other points.
func TestStatsCurrentAfterRunLoad(t *testing.T) {
	const shards = 3
	updates, monitors, g := loadCorpus(t, 400, 13, 20, 8)
	p, err := NewPipeline(Config{Shards: shards, Monitors: monitors, Rels: g})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()
	if _, err := p.RunLoad(updates, int64(len(updates))); err != nil {
		t.Fatal(err)
	}
	got := p.Stats()
	p.Close()
	var prefixes, rows, routes int
	for si, d := range p.dets {
		serial := detect.NewDetector(monitors, g)
		for _, u := range updates {
			if detect.PrefixShard(u.Prefix, shards) == si {
				serial.Observe(u)
			}
		}
		pf, r, _ := serial.Sizes()
		_, _, rt := d.Sizes()
		prefixes, rows, routes = prefixes+pf, rows+r, routes+rt
	}
	if got.Prefixes != int64(prefixes) || got.Rows != int64(rows) || got.Routes != int64(routes) {
		t.Errorf("Stats right after RunLoad: %d prefixes, %d rows, %d routes; the detectors hold %d, %d, %d",
			got.Prefixes, got.Rows, got.Routes, prefixes, rows, routes)
	}
	if prefixes == 0 || rows <= shards || routes == 0 {
		t.Fatalf("premise broken: %d prefixes on %d rows, %d routes", prefixes, rows, routes)
	}
	t.Logf("%d updates: %d prefixes on %d rows, %d routes", len(updates), prefixes, rows, routes)
}

// TestStatsReadOneCounterSet: Stats, RunLoad's report and /metrics read the
// enqueue, batch and alarm counts off the pipeline's one obs.Counters — the
// caller's, or a private one when Config.Counters is nil.
func TestStatsReadOneCounterSet(t *testing.T) {
	updates, monitors, g := loadCorpus(t, 400, 13, 20, 30)
	for _, counters := range []*obs.Counters{nil, new(obs.Counters)} {
		p, err := NewPipeline(Config{Shards: 2, Monitors: monitors, Rels: g, Counters: counters})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		rep, err := p.RunLoad(updates, int64(len(updates)))
		if err != nil {
			t.Fatal(err)
		}
		s := p.Stats()
		if s.Enqueued != int64(len(updates)) || s.Batches == 0 || s.Alarms == 0 || rep.Alarms != s.Alarms {
			t.Errorf("caller's counters %v: Stats reads %d enqueued, %d batches, %d alarms, the report %d alarms; want %d enqueued",
				counters != nil, s.Enqueued, s.Batches, s.Alarms, rep.Alarms, len(updates))
		}
		if cs := counters.Snapshot(); counters != nil && (cs.ServeEnqueued != s.Enqueued || cs.ServeBatches != s.Batches || cs.Alarms != s.Alarms) {
			t.Errorf("the caller's counters read %+v, Stats %+v", cs, s)
		}
		srv := httptest.NewServer(p.Handler())
		body := httpGet(t, srv.URL+"/metrics")
		srv.Close()
		for _, line := range []string{
			fmt.Sprintf("aspp_serve_enqueued_total %d\n", s.Enqueued),
			fmt.Sprintf("aspp_serve_batches_total %d\n", s.Batches),
			fmt.Sprintf("aspp_serve_alarms_total %d\n", s.Alarms),
			"aspp_frames_in_total 0\n",
		} {
			if !strings.Contains(body, line) {
				t.Errorf("caller's counters %v: /metrics lacks %q:\n%s", counters != nil, line, body)
			}
		}
		p.Close()
	}
}

func TestHTTPEndpoints(t *testing.T) {
	updates, monitors, g := loadCorpus(t, 400, 13, 20, 30)
	counters := &obs.Counters{}
	p, err := NewPipeline(Config{Shards: 2, Monitors: monitors, Rels: g, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()
	if _, err := p.RunLoad(updates, int64(len(updates))); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	body := httpGet(t, srv.URL+"/metrics")
	for _, name := range []string{
		"aspp_serve_shards 2", "aspp_serve_processed_total", "aspp_serve_dropped_total 0",
		"aspp_serve_latency_p99_ns", "aspp_serve_queue_peak", "aspp_serve_memory_bytes",
		"aspp_frames_in_total", "aspp_frames_bad_total", "aspp_arena_bytes",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %q\n%s", name, body)
		}
	}
	// Sweep telemetry nothing in a serving process records would read as a
	// permanent zero.
	for _, name := range []string{"aspp_prop_base_total", "aspp_prop_full_total", "aspp_prop_delta_total", "aspp_churn_updates_total", "aspp_scratch_bytes"} {
		if strings.Contains(body, name) {
			t.Errorf("/metrics prints %q, which no serving code path can move", name)
		}
	}

	var events []alarmJSON
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/alarms")), &events); err != nil {
		t.Fatalf("/alarms not JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("/alarms empty after a churn replay")
	}
	last := events[len(events)-1]
	if last.Prefix == "" || last.Confidence == "" || last.LatencyNs <= 0 {
		t.Fatalf("alarm event incomplete: %+v", last)
	}
	var two []alarmJSON
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/alarms?n=2")), &two); err != nil || len(two) > 2 {
		t.Fatalf("/alarms?n=2 returned %d events (err %v)", len(two), err)
	}
	if got := httpGet(t, srv.URL+"/healthz"); !strings.Contains(got, "ok") {
		t.Fatalf("/healthz = %q", got)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return string(body)
}

// TestIngestTCP drives the daemon path end to end: frames over a real
// TCP connection, through the stream decoder, shard rings, and workers.
func TestIngestTCP(t *testing.T) {
	updates, monitors, g := loadCorpus(t, 400, 19, 20, 30)
	counters := &obs.Counters{}
	p, err := NewPipeline(Config{Shards: 2, Monitors: monitors, Rels: g, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p.ServeIngest(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, u := range updates {
		buf, err = bgp.AppendUpdateBinary(buf, u)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	want := int64(len(updates))
	deadline := time.Now().Add(10 * time.Second)
	// The connection handler lands its last partial batch of frame counts
	// after EOF, which the shard workers can beat: wait for both.
	for p.processed.Load() < want || counters.Snapshot().FramesIn < want {
		if time.Now().After(deadline) {
			t.Fatalf("processed %d of %d updates before timeout", p.processed.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
	cs := counters.Snapshot()
	if cs.FramesIn != want || cs.FramesBad != 0 {
		t.Fatalf("frames_in %d frames_bad %d, want %d / 0", cs.FramesIn, cs.FramesBad, want)
	}
	if p.Stats().Alarms == 0 {
		t.Fatal("no alarms from the TCP replay")
	}

	// A poisoned stream is counted and the connection torn down.
	bad, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	bad.Write([]byte("this is not a frame, not even close........"))
	readDone := make(chan struct{})
	go func() { // server should close on us
		one := make([]byte, 1)
		bad.Read(one)
		close(readDone)
	}()
	select {
	case <-readDone:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not close a poisoned connection")
	}
	bad.Close()
	deadline = time.Now().Add(5 * time.Second)
	for counters.Snapshot().FramesBad == 0 {
		if time.Now().After(deadline) {
			t.Fatal("bad frame never counted")
		}
		time.Sleep(time.Millisecond)
	}

	l.Close()
	p.Close()
	wg.Wait()
}

// TestIngestPeerResetMidFrame is the first of ROADMAP 5b's faults: a peer
// that sends complete frames, then half a frame, then closes. Its complete
// frames are processed and exactly one bad frame is counted, while a
// second connection, open throughout, has its whole stream processed and
// Stats, /metrics and /healthz keep answering.
func TestIngestPeerResetMidFrame(t *testing.T) {
	updates, monitors, g := loadCorpus(t, 400, 37, 20, 30)
	counters := &obs.Counters{}
	p, err := NewPipeline(Config{Shards: 2, Monitors: monitors, Rels: g, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p.ServeIngest(l) }()

	encode := func(us []bgp.Update) []byte {
		var buf []byte
		for _, u := range us {
			if buf, err = bgp.AppendUpdateBinary(buf, u); err != nil {
				t.Fatal(err)
			}
		}
		return buf
	}
	k := len(updates) / 2
	whole, next := encode(updates), encode(updates[k:k+1])
	cut := append(encode(updates[:k]), next[:len(next)/2]...)
	waitFor := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, counters.Snapshot())
			}
		}
	}

	steady, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer steady.Close()
	if _, err := steady.Write(whole[:len(whole)/3]); err != nil { // may end mid-frame: the rest follows
		t.Fatal(err)
	}
	reset, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reset.Write(cut); err != nil {
		t.Fatal(err)
	}
	reset.Close()
	waitFor("the cut frame", func() bool { return counters.Snapshot().FramesBad > 0 })

	// The steady connection is still open, mid-stream: the daemon answers.
	if s := p.Stats(); s.Dropped != 0 {
		t.Fatalf("Stats after the reset: %d dropped", s.Dropped)
	}
	if got := httpGet(t, srv.URL+"/healthz"); !strings.Contains(got, "ok") {
		t.Fatalf("/healthz after the reset = %q", got)
	}
	if got := httpGet(t, srv.URL+"/metrics"); !strings.Contains(got, "aspp_frames_bad_total 1\n") {
		t.Fatalf("/metrics after the reset lacks one bad frame:\n%s", got)
	}
	if _, err := steady.Write(whole[len(whole)/3:]); err != nil {
		t.Fatal(err)
	}
	steady.Close()

	want := int64(k + len(updates))
	waitFor("both streams", func() bool { return p.processed.Load() >= want && counters.Snapshot().FramesIn >= want })
	s, cs := p.Stats(), counters.Snapshot()
	if s.Processed != want || s.Enqueued != want || cs.FramesIn != want || cs.FramesBad != 1 || s.Dropped != 0 {
		t.Fatalf("processed %d, enqueued %d, frames in %d, bad %d, dropped %d; want %d complete frames (%d before the cut, %d steady) and 1 bad",
			s.Processed, s.Enqueued, cs.FramesIn, cs.FramesBad, s.Dropped, want, k, len(updates))
	}
	if got := httpGet(t, srv.URL+"/healthz"); !strings.Contains(got, "ok") {
		t.Fatalf("/healthz after both streams = %q", got)
	}
	l.Close()
	p.Close()
	wg.Wait()
}

// TestIngestMalformedFlood is ROADMAP 5b's flood of malformed frames: 32
// connections each send one bad frame at the same moment while a clean
// connection streams the corpus. Every poisoned connection is closed and
// counted once, the clean stream is processed in full, /healthz answers
// throughout, and after Close no connection or producer is registered.
func TestIngestMalformedFlood(t *testing.T) {
	const poisoned = 32
	updates, monitors, g := loadCorpus(t, 400, 41, 20, 30)
	counters := &obs.Counters{}
	p, err := NewPipeline(Config{Shards: 2, Monitors: monitors, Rels: g, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); p.ServeIngest(l) }()

	var whole []byte
	for _, u := range updates {
		if whole, err = bgp.AppendUpdateBinary(whole, u); err != nil {
			t.Fatal(err)
		}
	}
	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	clean := dial()
	bad := make([]net.Conn, poisoned)
	for i := range bad {
		bad[i] = dial()
	}

	start := make(chan struct{})
	sent := make(chan error, 1)
	go func() { // in chunks, so the clean stream interleaves with the flood
		<-start
		for off := 0; off < len(whole); off += 4096 {
			if _, err := clean.Write(whole[off:min(off+4096, len(whole))]); err != nil {
				sent <- err
				return
			}
		}
		sent <- clean.Close()
	}()
	// closed receives nil once the server has closed a poisoned connection.
	closed := make(chan error, poisoned)
	for _, c := range bad {
		go func(c net.Conn) {
			defer c.Close()
			<-start
			c.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := c.Write([]byte("this is not a frame, not even close........")); err != nil {
				closed <- err
				return
			}
			_, err := c.Read(make([]byte, 1))
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				closed <- fmt.Errorf("server left a poisoned connection open: %v", err)
				return
			}
			closed <- nil
		}(c)
	}
	close(start)

	want := int64(len(updates))
	open, checks := poisoned, 0
	for deadline := time.Now().Add(10 * time.Second); open > 0 || p.processed.Load() < want || counters.Snapshot().FramesIn < want; checks++ {
		if got := httpGet(t, srv.URL+"/healthz"); !strings.Contains(got, "ok") {
			t.Fatalf("/healthz during the flood = %q", got)
		}
		for drained := false; !drained; {
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
				open--
			default:
				drained = true
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d poisoned connections open, %d of %d updates processed: %+v",
				open, p.processed.Load(), want, counters.Snapshot())
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	s, cs := p.Stats(), counters.Snapshot()
	if s.Processed != want || cs.FramesIn != want || cs.FramesBad != poisoned || s.Dropped != 0 {
		t.Fatalf("processed %d, frames in %d, bad %d, dropped %d; want %d clean frames and %d bad",
			s.Processed, cs.FramesIn, cs.FramesBad, s.Dropped, want, poisoned)
	}
	if got := httpGet(t, srv.URL+"/metrics"); !strings.Contains(got, fmt.Sprintf("aspp_frames_bad_total %d\n", poisoned)) {
		t.Fatalf("/metrics after the flood lacks %d bad frames:\n%s", poisoned, got)
	}
	t.Logf("%d /healthz answers during the flood", checks)

	shut := make(chan struct{})
	go func() { p.Close(); close(shut) }()
	select {
	case <-shut:
	case <-time.After(10 * time.Second):
		t.Fatal("Close still waits for a producer")
	}
	p.connMu.Lock()
	left := len(p.conns)
	p.connMu.Unlock()
	if left != 0 {
		t.Fatalf("%d connections still registered after Close", left)
	}
	l.Close()
	wg.Wait()
}

// TestCloseMidIngestProcessesAccepted pins the shutdown ordering: Close
// quiesces producers (waits for every ingest goroutine) before workers
// may exit, so even when Close lands mid-stream no accepted update is
// stranded on a ring — the Block policy's "no update is ever lost"
// contract — and the rings are empty afterwards.
func TestCloseMidIngestProcessesAccepted(t *testing.T) {
	updates, monitors, g := loadCorpus(t, 400, 31, 20, 30)
	// A shallow ring raises the odds Close catches a producer mid-push.
	p, err := NewPipeline(Config{Shards: 2, Depth: 64, Batch: 16, Monitors: monitors, Rels: g})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() { defer srvWG.Done(); p.ServeIngest(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var buf []byte
	for _, u := range updates {
		buf, err = bgp.AppendUpdateBinary(buf, u)
		if err != nil {
			t.Fatal(err)
		}
	}
	sendDone := make(chan struct{})
	go func() { // stream until the server tears the connection down
		defer close(sendDone)
		for {
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for p.processed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no updates processed before timeout")
		}
		time.Sleep(time.Millisecond)
	}
	p.Close() // mid-stream: producers still pushing
	<-sendDone

	s := p.Stats()
	if s.Processed != s.Enqueued {
		t.Fatalf("processed %d != enqueued %d after Close — accepted updates stranded", s.Processed, s.Enqueued)
	}
	if s.QueueDepth != 0 {
		t.Fatalf("queue depth %d after Close, want 0", s.QueueDepth)
	}
	l.Close()
	srvWG.Wait()
}

func TestAlarmLogOverwrite(t *testing.T) {
	l := newAlarmLog(4)
	pfx := netip.MustParsePrefix("10.0.0.0/24")
	for i := 0; i < 10; i++ {
		l.publish(pfx, []detect.Alarm{{Monitor: bgp.ASN(i)}}, int64(i))
	}
	got := l.last(100)
	if len(got) != 4 {
		t.Fatalf("last(100) = %d events, want 4 (capacity)", len(got))
	}
	for i, ev := range got {
		wantSeq := int64(6 + i) // events 6..9 survive, oldest first
		if ev.Seq != wantSeq || ev.Alarm.Monitor != bgp.ASN(wantSeq) || ev.Prefix != pfx {
			t.Fatalf("event %d: %+v, want seq %d", i, ev, wantSeq)
		}
	}
	if n := len(l.last(2)); n != 2 {
		t.Fatalf("last(2) = %d events", n)
	}
	for _, n := range []int{0, -1, -1 << 40} { // a negative count used to panic in make
		if got := l.last(n); len(got) != 0 {
			t.Fatalf("last(%d) = %d events, want none", n, len(got))
		}
	}
}
