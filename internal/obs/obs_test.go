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
	for k := range numCounts {
		c.Add(k, 1)
	}
	for g := ScratchBytes; int(g) < numSlots; g++ {
		c.Max(g, 1)
	}
	if got := c.Snapshot(); got != (Snapshot{}) {
		t.Fatalf("nil Snapshot()=%+v, want zero", got)
	}
	if s := c.String(); s == "" || strings.Contains(s, "_batch=") || strings.Contains(s, "batch_calls=") {
		t.Fatalf("nil String() = %q, want a line with no lane counters", s)
	}
}

// fillDistinct records a distinct prime into every value through its
// named constant, the i-th value in -counters order getting primes[i],
// and returns the Counters. Recording by name, not by slot, is what lets
// TestSnapshot catch a constant that falls out of step with its table row.
func fillDistinct() *Counters {
	c := new(Counters)
	c.Add(BasePropagations, 2)
	c.Add(FullPropagations, 3)
	c.Add(DeltaPropagations, 5)
	c.Add(RowsDown, 7)
	c.Add(ConeRows, 11)
	c.Add(BaselineHits, 13)
	c.Add(BaselineMisses, 17)
	c.Add(SkippedUnreachable, 19)
	c.Add(SkippedIneffective, 23)
	c.Add(ChurnUpdates, 29)
	c.Add(DetectPairs, 31)
	c.Add(FramesIn, 37)
	c.Add(FramesBad, 41)
	c.Add(ServeEnqueued, 43)
	c.Add(ServeDropped, 47)
	c.Add(ServeBatches, 53)
	c.Add(Alarms, 59)
	c.Max(ScratchBytes, 61)
	c.Max(ArenaBytes, 67)
	c.Max(CacheBytes, 71)
	c.Max(CSRBytes, 73)
	c.Max(QueuePeak, 79)
	return c
}

var primes = [numSlots]int64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79}

// TestSnapshot: each value recorded through its named constant lands in
// the Snapshot field of that name (distinct primes catch crossed wires
// between the constants and the table rows), and the deprecated
// BatchPropagations stays 0.
func TestSnapshot(t *testing.T) {
	c := fillDistinct()
	for i := range c.v {
		if c.v[i].Load() == 0 {
			t.Fatalf("fillDistinct leaves %s unrecorded: name every value there", table[i].key)
		}
	}
	got := c.Snapshot()
	want := Snapshot{
		BasePropagations: 2, FullPropagations: 3, DeltaPropagations: 5,
		RowsDown: 7, ConeRows: 11, BaselineHits: 13, BaselineMisses: 17,
		SkippedUnreachable: 19, SkippedIneffective: 23, ChurnUpdates: 29, DetectPairs: 31,
		FramesIn: 37, FramesBad: 41, ServeEnqueued: 43, ServeDropped: 47, ServeBatches: 53, Alarms: 59,
		ScratchBytes: 61, ArenaBytes: 67, CacheBytes: 71, CSRBytes: 73, QueuePeak: 79,
	}
	if got != want {
		t.Fatalf("Snapshot()=%+v, want %+v", got, want)
	}
	if got.AttackPropagations() != 8 {
		t.Fatalf("AttackPropagations()=%d, want 8", got.AttackPropagations())
	}
}

// TestStringPinned pins the -counters line byte for byte: its keys, their
// order and each key's value. cmd/asppbench's tests and readers of saved
// runs parse this line.
func TestStringPinned(t *testing.T) {
	const want = "prop_base=2 prop_full=3 prop_delta=5 rows_down=7 cone_rows=11 cache_hit=13 cache_miss=17 " +
		"skip_unreachable=19 skip_ineffective=23 churn_updates=29 detect_pairs=31 " +
		"frames_in=37 frames_bad=41 serve_enq=43 serve_drop=47 serve_batches=53 alarms=59 " +
		"scratch_bytes=61 arena_bytes=67 cache_bytes=71 csr_bytes=73 queue_peak=79"
	if got := fillDistinct().String(); got != want {
		t.Fatalf("String()\n got %s\nwant %s", got, want)
	}
}

// TestByteGauges pins the high-watermark semantics of the memory gauges:
// recording never lowers a gauge, so shards recording into one Counters
// leave the largest single shard's figure.
func TestByteGauges(t *testing.T) {
	var a Counters
	a.Max(ScratchBytes, 100)
	a.Max(ScratchBytes, 50) // lower sample must not regress the watermark
	a.Max(ArenaBytes, 7)
	a.Max(CacheBytes, 200)
	a.Max(CacheBytes, 300)
	a.Max(CSRBytes, -1) // non-positive samples are ignored
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
				c.Max(CacheBytes, v*i)
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
				c.Add(DeltaPropagations, 1)
				c.Add(BaselineHits, 2)
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
	a := uintptr(unsafe.Pointer(&c.v[BasePropagations]))
	b := uintptr(unsafe.Pointer(&c.v[FullPropagations]))
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
	lanes := [...]*lineCounter{&c.v[0], &c.v[1], &c.v[2], &c.v[3], &c.v[4], &c.v[5], &c.v[6], &c.v[7]}
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

// TestServeCountersSnapshot: a second round of the same records doubles
// every Count and leaves every Gauge where it was, so a sum is never
// max-merged nor a gauge summed (the serve counters and the queue peak
// included, which the metrics endpoint reads in one Snapshot).
func TestServeCountersSnapshot(t *testing.T) {
	a := fillDistinct()
	for k := range numCounts {
		a.Add(k, primes[k])
	}
	for g := ScratchBytes; int(g) < numSlots; g++ {
		a.Max(g, primes[g])
		a.Max(g, 1) // a lower record is ignored
	}
	got, want := a.Snapshot(), fillDistinct().Snapshot()
	for i := range table {
		w := *table[i].field(&want)
		if i < int(numCounts) {
			w *= 2
		}
		if g := *table[i].field(&got); g != w {
			t.Errorf("%s=%d after two rounds, want %d", table[i].key, g, w)
		}
	}
}

// TestSnapshotFieldCount guards the table's completeness: every slot has a
// distinct non-empty key and a distinct Snapshot field, and Snapshot has
// exactly those fields plus the deprecated BatchPropagations, which no
// slot feeds.
func TestSnapshotFieldCount(t *testing.T) {
	var s Snapshot
	st := reflect.TypeOf(s)
	byOffset := map[uintptr]string{}
	for i := 0; i < st.NumField(); i++ {
		byOffset[st.Field(i).Offset] = st.Field(i).Name
	}
	keys, fields := map[string]bool{}, map[string]bool{"BatchPropagations": true}
	for i := range table {
		key := table[i].key
		if key == "" || strings.ContainsAny(key, " =") || keys[key] {
			t.Errorf("slot %d: key %q is empty, not one word or taken", i, key)
		}
		keys[key] = true
		off := uintptr(unsafe.Pointer(table[i].field(&s))) - uintptr(unsafe.Pointer(&s))
		name, ok := byOffset[off]
		if !ok || fields[name] {
			t.Errorf("slot %d (%s): Snapshot field %q at offset %d is no field or taken", i, key, name, off)
		}
		fields[name] = true
	}
	if len(fields) != st.NumField() {
		t.Fatalf("the table feeds %d Snapshot fields plus BatchPropagations, Snapshot has %d — keep them in lockstep", len(fields)-1, st.NumField())
	}
}
