// Package obs provides lightweight sweep telemetry: cheap atomic counters
// that the experiment drivers thread through their propagation fan-outs.
// Operational pathologies — an overdrawn candidate budget simulating 20×
// the requested instances, a victim propagated again and again, draws silently
// skipped — become visible in driver output (asppbench/asppsim -counters)
// instead of only in a profiler.
//
// Ownership contract: one Counters per sweep. The drivers never share a
// Counters across independent sweeps.
package obs

import (
	"fmt"
	"sync/atomic"
)

// lineCounter is an atomic counter padded out to its own cache line.
// Sweep workers hammer different counters concurrently (one worker mostly
// bumps deltaPropagations while another bumps baselineHits); packed
// atomic.Int64 fields would put eight logically-independent counters on a
// single 64-byte line and turn every increment into cross-core line
// ping-pong (false sharing). The padding buys independence at 64 bytes per
// counter — negligible for one Counters per sweep.
// BenchmarkCountersParallelPadded/Packed in obs_test.go demonstrates the
// difference.
type lineCounter struct {
	atomic.Int64
	_ [56]byte // pad to 64 bytes: one counter per cache line
}

// recordMax raises the counter to n if n is larger — the high-watermark
// update the byte gauges use. Concurrent recorders converge on the
// maximum regardless of interleaving.
func (c *lineCounter) recordMax(n int64) {
	for {
		cur := c.Load()
		if n <= cur || c.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Counters aggregates one sweep's telemetry. The zero value is ready to
// use. Every method is safe for concurrent use and nil-safe, so drivers
// thread an optional *Counters unconditionally — a nil receiver makes all
// recording free no-ops.
type Counters struct {
	basePropagations   lineCounter
	fullPropagations   lineCounter
	deltaPropagations  lineCounter
	baselineHits       lineCounter
	baselineMisses     lineCounter
	skippedUnreachable lineCounter
	skippedIneffective lineCounter
	churnUpdates       lineCounter
	rowsDown           lineCounter
	coneRows           lineCounter
	detectPairs        lineCounter

	// Serve-pipeline counters (DESIGN §5g): the streaming daemon's ingest
	// and detection traffic. frames_in counts frames decoded off ingest
	// sockets; frames_bad counts malformed/oversized/truncated frames
	// (each ends its connection); serve_enq/serve_drop split the enqueue
	// verdicts under the drop backpressure policy; serve_batches counts
	// ObserveBatch drains; alarms counts detection alarms raised.
	framesIn      lineCounter
	framesBad     lineCounter
	serveEnqueued lineCounter
	serveDropped  lineCounter
	serveBatches  lineCounter
	alarmsRaised  lineCounter

	// Byte gauges: high-watermark memory footprints (DESIGN §5f). Unlike
	// the counters above these are max-merged, not summed — each records
	// the largest footprint any single recorder observed, so the reported
	// value bounds the peak working set of one shard/worker rather than
	// accumulating over the sweep.
	scratchBytes lineCounter
	arenaBytes   lineCounter
	cacheBytes   lineCounter
	csrBytes     lineCounter

	// queuePeak is the deepest any single serve ingest ring ever got
	// (max-merged like the byte gauges): the backlog high-watermark the
	// soak gate asserts stays within the configured depth.
	queuePeak lineCounter
}

// AddBasePropagations records n no-attack (baseline) propagations.
func (c *Counters) AddBasePropagations(n int64) {
	if c != nil {
		c.basePropagations.Add(n)
	}
}

// AddRowsDown records the n result rows a no-attacker propagation emitted
// (routing.Scratch.RowsDown): the graph's size, or a Vantage's cone.
func (c *Counters) AddRowsDown(n int64) {
	if c != nil {
		c.rowsDown.Add(n)
	}
}

// AddConeRows records the n ASes one delta attack leg examined
// (routing.Scratch.DeltaCone): what the delta engine's cost follows.
func (c *Counters) AddConeRows(n int64) {
	if c != nil {
		c.coneRows.Add(n)
	}
}

// AddDetectPairs records n (trigger, witness) pairs the detection rule
// compared; the detection sweeps add one attack's pairs at a time.
func (c *Counters) AddDetectPairs(n int64) {
	if c != nil {
		c.detectPairs.Add(n)
	}
}

// AddFullPropagations records n full-kernel attack propagations.
func (c *Counters) AddFullPropagations(n int64) {
	if c != nil {
		c.fullPropagations.Add(n)
	}
}

// AddDeltaPropagations records n incremental delta attack propagations.
func (c *Counters) AddDeltaPropagations(n int64) {
	if c != nil {
		c.deltaPropagations.Add(n)
	}
}

// AddBaselineHits records n baseline-cache hits: gets answered without a
// propagation — the baseline a sweep shard holds, as it is or shifted in
// place to another λ of the same victim (routing.Result.Shift).
func (c *Counters) AddBaselineHits(n int64) {
	if c != nil {
		c.baselineHits.Add(n)
	}
}

// AddBaselineMisses records n baseline-cache misses: keys propagated (or
// failing validation), so prop_base == cache_miss on success.
func (c *Counters) AddBaselineMisses(n int64) {
	if c != nil {
		c.baselineMisses.Add(n)
	}
}

// AddSkippedUnreachable records n draws skipped because the attacker never
// receives the victim's route (the skippable sentinel class).
func (c *Counters) AddSkippedUnreachable(n int64) {
	if c != nil {
		c.skippedUnreachable.Add(n)
	}
}

// AddSkippedIneffective records n draws skipped because the attack
// captured nobody (a no-op instance with nothing to detect).
func (c *Counters) AddSkippedIneffective(n int64) {
	if c != nil {
		c.skippedIneffective.Add(n)
	}
}

// AddChurnUpdates records n monitor update announcements emitted.
func (c *Counters) AddChurnUpdates(n int64) {
	if c != nil {
		c.churnUpdates.Add(n)
	}
}

// RecordScratchBytes raises the scratch-memory high-watermark gauge: the
// per-worker propagation state (Scratch) footprint of the largest single
// worker or shard.
func (c *Counters) RecordScratchBytes(n int64) {
	if c != nil {
		c.scratchBytes.recordMax(n)
	}
}

// RecordArenaBytes raises the path-arena high-watermark gauge.
func (c *Counters) RecordArenaBytes(n int64) {
	if c != nil {
		c.arenaBytes.recordMax(n)
	}
}

// RecordCacheBytes raises the baseline high-watermark gauge: the largest
// baseline a sweep shard held. A shard holds one, that of the victim it is
// on, in its Scratch's baseline slot, so this is part of the scratch gauge,
// not added to it; the scale-smoke gates bound it by one baseline's bytes.
func (c *Counters) RecordCacheBytes(n int64) {
	if c != nil {
		c.cacheBytes.recordMax(n)
	}
}

// RecordCSRBytes raises the topology (CSR graph) footprint gauge. The
// graph is shared read-only across shards, so this is recorded once per
// sweep rather than per worker.
func (c *Counters) RecordCSRBytes(n int64) {
	if c != nil {
		c.csrBytes.recordMax(n)
	}
}

// AddFramesIn records n binary frames decoded from ingest streams.
func (c *Counters) AddFramesIn(n int64) {
	if c != nil {
		c.framesIn.Add(n)
	}
}

// AddFramesBad records n malformed, truncated or oversized ingest frames.
func (c *Counters) AddFramesBad(n int64) {
	if c != nil {
		c.framesBad.Add(n)
	}
}

// AddServeEnqueued records n updates accepted into a shard ring.
func (c *Counters) AddServeEnqueued(n int64) {
	if c != nil {
		c.serveEnqueued.Add(n)
	}
}

// AddServeDropped records n updates rejected by a full ring under the
// drop backpressure policy.
func (c *Counters) AddServeDropped(n int64) {
	if c != nil {
		c.serveDropped.Add(n)
	}
}

// AddServeBatches records n ObserveBatch queue drains.
func (c *Counters) AddServeBatches(n int64) {
	if c != nil {
		c.serveBatches.Add(n)
	}
}

// AddAlarms records n detection alarms raised by the streaming pipeline.
func (c *Counters) AddAlarms(n int64) {
	if c != nil {
		c.alarmsRaised.Add(n)
	}
}

// RecordQueuePeak raises the ingest-ring depth high-watermark gauge.
func (c *Counters) RecordQueuePeak(n int64) {
	if c != nil {
		c.queuePeak.recordMax(n)
	}
}

// Snapshot is a point-in-time copy of a Counters, safe to compare and
// format without further synchronization.
type Snapshot struct {
	BasePropagations   int64
	FullPropagations   int64
	DeltaPropagations  int64
	BaselineHits       int64
	BaselineMisses     int64
	SkippedUnreachable int64
	SkippedIneffective int64
	ChurnUpdates       int64
	RowsDown           int64
	ConeRows           int64
	DetectPairs        int64
	// Deprecated: always 0 — no baseline runs as a lane any more. It stays
	// for bench/layers.go, which reads it, until the [benchmark] issue.
	BatchPropagations int64

	FramesIn      int64
	FramesBad     int64
	ServeEnqueued int64
	ServeDropped  int64
	ServeBatches  int64
	Alarms        int64

	ScratchBytes int64
	ArenaBytes   int64
	CacheBytes   int64
	CSRBytes     int64
	QueuePeak    int64
}

// Snapshot reads all counters. A nil receiver yields the zero Snapshot.
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		BasePropagations:   c.basePropagations.Load(),
		FullPropagations:   c.fullPropagations.Load(),
		DeltaPropagations:  c.deltaPropagations.Load(),
		BaselineHits:       c.baselineHits.Load(),
		BaselineMisses:     c.baselineMisses.Load(),
		SkippedUnreachable: c.skippedUnreachable.Load(),
		SkippedIneffective: c.skippedIneffective.Load(),
		ChurnUpdates:       c.churnUpdates.Load(),
		RowsDown:           c.rowsDown.Load(),
		ConeRows:           c.coneRows.Load(),
		DetectPairs:        c.detectPairs.Load(),

		FramesIn:      c.framesIn.Load(),
		FramesBad:     c.framesBad.Load(),
		ServeEnqueued: c.serveEnqueued.Load(),
		ServeDropped:  c.serveDropped.Load(),
		ServeBatches:  c.serveBatches.Load(),
		Alarms:        c.alarmsRaised.Load(),

		ScratchBytes: c.scratchBytes.Load(),
		ArenaBytes:   c.arenaBytes.Load(),
		CacheBytes:   c.cacheBytes.Load(),
		CSRBytes:     c.csrBytes.Load(),
		QueuePeak:    c.queuePeak.Load(),
	}
}

// AttackPropagations is the total attack-leg propagation count across
// engines — the number the candidate-budget pinning tests bound.
func (s Snapshot) AttackPropagations() int64 {
	return s.FullPropagations + s.DeltaPropagations
}

// String formats the snapshot as one stable key=value line (the
// -counters output format).
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"prop_base=%d prop_full=%d prop_delta=%d rows_down=%d cone_rows=%d cache_hit=%d cache_miss=%d skip_unreachable=%d skip_ineffective=%d churn_updates=%d detect_pairs=%d frames_in=%d frames_bad=%d serve_enq=%d serve_drop=%d serve_batches=%d alarms=%d scratch_bytes=%d arena_bytes=%d cache_bytes=%d csr_bytes=%d queue_peak=%d",
		s.BasePropagations, s.FullPropagations, s.DeltaPropagations, s.RowsDown, s.ConeRows,
		s.BaselineHits, s.BaselineMisses,
		s.SkippedUnreachable, s.SkippedIneffective, s.ChurnUpdates, s.DetectPairs,
		s.FramesIn, s.FramesBad, s.ServeEnqueued, s.ServeDropped,
		s.ServeBatches, s.Alarms,
		s.ScratchBytes, s.ArenaBytes, s.CacheBytes, s.CSRBytes, s.QueuePeak)
}

// String formats the current counts; nil-safe.
func (c *Counters) String() string { return c.Snapshot().String() }
