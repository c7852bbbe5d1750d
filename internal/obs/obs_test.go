package obs

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestNilCountersAreNoOps: every method must be callable on a nil
// *Counters so drivers can thread an optional counter unconditionally.
func TestNilCountersAreNoOps(t *testing.T) {
	var c *Counters
	c.AddBasePropagations(1)
	c.AddFullPropagations(1)
	c.AddDeltaPropagations(1)
	c.AddBaselineHits(1)
	c.AddBaselineMisses(1)
	c.AddSkippedUnreachable(1)
	c.AddSkippedIneffective(1)
	c.AddChurnUpdates(1)
	c.AddRowsDown(1)
	c.RecordScratchBytes(1)
	c.RecordArenaBytes(1)
	c.RecordCacheBytes(1)
	c.RecordCSRBytes(1)
	if got := c.Snapshot(); got != (Snapshot{}) {
		t.Fatalf("nil Snapshot()=%+v, want zero", got)
	}
	if s := c.String(); s == "" || strings.Contains(s, "_batch=") || strings.Contains(s, "batch_calls=") {
		t.Fatalf("nil String() = %q, want a line with no lane counters", s)
	}
}

func TestSnapshot(t *testing.T) {
	var a Counters
	a.AddBasePropagations(2)
	a.AddFullPropagations(3)
	a.AddDeltaPropagations(5)
	a.AddBaselineHits(7)
	a.AddBaselineMisses(11)
	a.AddSkippedUnreachable(13)
	a.AddSkippedIneffective(17)
	a.AddChurnUpdates(19)
	a.AddRowsDown(23)
	got := a.Snapshot()
	want := Snapshot{
		BasePropagations:   2,
		FullPropagations:   3,
		DeltaPropagations:  5,
		BaselineHits:       7,
		BaselineMisses:     11,
		SkippedUnreachable: 13,
		SkippedIneffective: 17,
		ChurnUpdates:       19,
		RowsDown:           23,
	}
	if got != want {
		t.Fatalf("Snapshot()=%+v, want %+v", got, want)
	}
	if got.AttackPropagations() != 8 {
		t.Fatalf("AttackPropagations()=%d, want 8", got.AttackPropagations())
	}
}

// TestByteGauges pins the high-watermark semantics of the memory gauges:
// recording never lowers a gauge, so shards recording into one Counters
// leave the largest single shard's figure.
func TestByteGauges(t *testing.T) {
	var a Counters
	a.RecordScratchBytes(100)
	a.RecordScratchBytes(50) // lower sample must not regress the watermark
	a.RecordArenaBytes(7)
	a.RecordCacheBytes(200)
	a.RecordCacheBytes(300)
	a.RecordCSRBytes(-1) // non-positive samples are ignored
	s := a.Snapshot()
	if s.ScratchBytes != 100 || s.ArenaBytes != 7 || s.CacheBytes != 300 || s.CSRBytes != 0 {
		t.Fatalf("Snapshot()=%+v, want scratch=100 arena=7 cache=300 csr=0", s)
	}
}

// TestByteGaugesConcurrent: concurrent recorders converge on the true
// maximum regardless of interleaving (exercised under -race).
func TestByteGaugesConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	const goroutines = 8
	for g := 1; g <= goroutines; g++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			for i := int64(1); i <= 100; i++ {
				c.RecordCacheBytes(v * i)
			}
		}(int64(g))
	}
	wg.Wait()
	if got := c.Snapshot().CacheBytes; got != goroutines*100 {
		t.Fatalf("CacheBytes=%d, want %d", got, goroutines*100)
	}
}

// TestConcurrentAdds exercises the atomic counters under -race and checks
// the totals are exact.
func TestConcurrentAdds(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.AddDeltaPropagations(1)
				c.AddBaselineHits(2)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.DeltaPropagations != goroutines*per || s.BaselineHits != 2*goroutines*per {
		t.Fatalf("Snapshot()=%+v, want exact totals", s)
	}
}

// TestCounterPadding pins the layout property the padding exists for: each
// counter occupies a full cache line, so two counters never share one.
func TestCounterPadding(t *testing.T) {
	if size := unsafe.Sizeof(lineCounter{}); size != 64 {
		t.Fatalf("sizeof(lineCounter)=%d, want 64", size)
	}
	var c Counters
	a := uintptr(unsafe.Pointer(&c.basePropagations))
	b := uintptr(unsafe.Pointer(&c.fullPropagations))
	if b-a < 64 {
		t.Fatalf("adjacent counters %d bytes apart, want >= 64", b-a)
	}
}

// packedCounters is the pre-padding layout: eight adjacent atomic.Int64
// fields sharing one or two cache lines. Kept only as the benchmark
// baseline that demonstrates the false sharing the padded layout removes.
type packedCounters struct {
	a, b, c, d, e, f, g, h atomic.Int64
}

// benchParallelAdd hammers per-goroutine counters the way sweep workers
// do: each goroutine repeatedly increments its own counter, never a shared
// one, so any slowdown versus the padded layout is pure cache-line
// contention.
func BenchmarkCountersParallelPadded(b *testing.B) {
	var c Counters
	lanes := [...]*lineCounter{
		&c.basePropagations, &c.fullPropagations, &c.deltaPropagations,
		&c.baselineHits, &c.baselineMisses, &c.skippedUnreachable,
		&c.skippedIneffective, &c.churnUpdates,
	}
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		lane := lanes[int(next.Add(1)-1)%len(lanes)]
		for pb.Next() {
			lane.Add(1)
		}
	})
}

func BenchmarkCountersParallelPacked(b *testing.B) {
	var c packedCounters
	lanes := [...]*atomic.Int64{
		&c.a, &c.b, &c.c, &c.d, &c.e, &c.f, &c.g, &c.h,
	}
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		lane := lanes[int(next.Add(1)-1)%len(lanes)]
		for pb.Next() {
			lane.Add(1)
		}
	})
}

// TestServeCountersSnapshot pins the PR 10 serving counters: each Add
// lands in its own Snapshot field (distinct primes catch crossed wires)
// and the metrics endpoint's single-struct read sees all of them.
func TestServeCountersSnapshot(t *testing.T) {
	var a Counters
	a.AddFramesIn(2)
	a.AddFramesBad(3)
	a.AddServeEnqueued(5)
	a.AddServeDropped(7)
	a.AddServeBatches(11)
	a.AddAlarms(13)
	a.RecordQueuePeak(17)
	got := a.Snapshot()
	want := Snapshot{
		FramesIn: 2, FramesBad: 3, ServeEnqueued: 5,
		ServeDropped: 7, ServeBatches: 11, Alarms: 13, QueuePeak: 17,
	}
	if got != want {
		t.Fatalf("Snapshot()=%+v, want %+v", got, want)
	}
	// Peak is a high-watermark: lower records are ignored.
	a.RecordQueuePeak(4)
	if a.Snapshot().QueuePeak != 17 {
		t.Fatalf("QueuePeak lowered to %d", a.Snapshot().QueuePeak)
	}
	// Nil safety for the new methods.
	var nilC *Counters
	nilC.AddFramesIn(1)
	nilC.AddFramesBad(1)
	nilC.AddServeEnqueued(1)
	nilC.AddServeDropped(1)
	nilC.AddServeBatches(1)
	nilC.AddAlarms(1)
	nilC.RecordQueuePeak(1)
	// String carries every serve counter name.
	s := a.String()
	for _, name := range []string{"frames_in=2", "frames_bad=3", "serve_enq=5", "serve_drop=7", "serve_batches=11", "alarms=13", "queue_peak=17"} {
		if !strings.Contains(s, name) {
			t.Fatalf("String() missing %q: %s", name, s)
		}
	}
}

// TestSnapshotFieldCount guards Snapshot completeness: a new counter or
// gauge added to Counters must surface in Snapshot too. Counters carries
// exactly one padded line or gauge per Snapshot field but the deprecated
// BatchPropagations, which no counter feeds.
func TestSnapshotFieldCount(t *testing.T) {
	snapFields := reflect.TypeOf(Snapshot{}).NumField() - 1
	var counterSlots int
	ct := reflect.TypeOf(Counters{})
	for i := 0; i < ct.NumField(); i++ {
		switch ct.Field(i).Type.Name() {
		case "lineCounter", "lineGauge":
			counterSlots++
		}
	}
	if counterSlots != snapFields {
		t.Fatalf("Counters has %d counter/gauge slots but Snapshot has %d fields — keep them in lockstep", counterSlots, snapFields)
	}
}
