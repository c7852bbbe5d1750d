package aspp

import (
	"fmt"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/detect"
	"aspp/internal/serve"
	"aspp/internal/topology"
)

// serveBenchCorpus builds the churn replay corpus the serving benchmarks
// replay: the same traffic shape cmd/asppserve -selftest and the load
// generator use (failover announcements, restore-triggered detections,
// withdrawals).
func serveBenchCorpus(b *testing.B, nAS int, seed int64, nMon, events int) ([]bgp.Update, []bgp.ASN, *topology.Graph) {
	b.Helper()
	cfg := topology.DefaultGenConfig(nAS)
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	if err != nil {
		b.Fatal(err)
	}
	monitors := g.TopByDegree(nMon)
	evs := collector.PlanChurn(origins, events, seed+1)
	updates, err := collector.ChurnStream(g, origins, evs, monitors, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	if len(updates) == 0 {
		b.Fatal("empty churn corpus")
	}
	return updates, monitors, g
}

// BenchmarkServeThroughput is the PR 10 acceptance benchmark: end-to-end
// pipeline throughput (ring push → shard worker → ObserveBatch → alarm
// feed) over the churn corpus, swept across shard counts. ns/op is the
// per-update pipeline cost, so ≥1M updates/sec means ns/op < 1000 at the
// best shard count; the enqueue-to-alarm p99 is attached as a custom
// "p99_ns" metric (the measured record is bench/'s serve workloads).
func BenchmarkServeThroughput(b *testing.B) {
	updates, monitors, g := serveBenchCorpus(b, 1000, 42, 30, 80)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p, err := serve.NewPipeline(serve.Config{
				Shards: shards, Monitors: monitors, Rels: g,
			})
			if err != nil {
				b.Fatal(err)
			}
			p.Start()
			defer p.Close()
			// Warm the detector tables and ring paths outside the timer.
			if _, err := p.RunLoad(updates, int64(2*len(updates))); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			rep, err := p.RunLoad(updates, int64(b.N))
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if rep.Dropped != 0 {
				b.Fatalf("dropped %d updates under block policy", rep.Dropped)
			}
			b.ReportMetric(float64(rep.P99Ns), "p99_ns")
			b.ReportMetric(rep.UpdatesPerSec, "updates/sec")
		})
	}
}

// BenchmarkObserveBatch measures the batched detection core alone (no
// rings, no goroutines): one warmed detector consuming the corpus in
// serve-sized batches. The acceptance pin is 0 allocs/op warmed.
func BenchmarkObserveBatch(b *testing.B) {
	updates, monitors, g := serveBenchCorpus(b, 1000, 42, 30, 80)
	d := detect.NewDetector(monitors, g)
	alarms := make([]detect.Alarm, 0, 64)
	// Warm every (prefix, monitor) slot.
	alarms = d.ObserveBatch(updates, alarms[:0])
	_ = alarms
	const batchSize = 256
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		for i := 0; i < len(updates) && done < b.N; i += batchSize {
			j := i + batchSize
			if j > len(updates) {
				j = len(updates)
			}
			alarms = d.ObserveBatch(updates[i:j], alarms[:0])
			done += j - i
		}
	}
}

// BenchmarkStreamDecode measures the framed codec alone: decoding a
// warmed in-memory frame stream, the asppserve ingest inner loop.
func BenchmarkStreamDecode(b *testing.B) {
	updates, _, _ := serveBenchCorpus(b, 1000, 42, 30, 80)
	var buf []byte
	var err error
	for _, u := range updates {
		buf, err = bgp.AppendUpdateBinary(buf, u)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf) / len(updates)))
	b.ReportAllocs()
	b.ResetTimer()
	var u bgp.Update
	dec := bgp.NewStreamDecoder(newLoopReader(buf))
	for i := 0; i < b.N; i++ {
		if err := dec.Next(&u); err != nil {
			b.Fatal(err)
		}
	}
}

// loopReader replays one buffer forever, so a decode benchmark never
// exhausts its stream.
type loopReader struct {
	buf []byte
	off int
}

func newLoopReader(buf []byte) *loopReader { return &loopReader{buf: buf} }

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.buf) {
		r.off = 0
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}
