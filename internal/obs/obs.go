// Package obs provides lightweight sweep telemetry: cheap atomic counters
// that the experiment drivers thread through their propagation fan-outs.
// Operational pathologies — an overdrawn candidate budget simulating 20×
// the requested instances, a victim propagated again and again, draws silently
// skipped — become visible in driver output (asppbench/asppsim -counters)
// instead of only in a profiler.
//
// Each value is named by a constant of one of two kinds: a Count is a sum
// (Counters.Add), a Gauge a high-watermark (Counters.Max). One table row per
// value gives its -counters key and its Snapshot field.
//
// Ownership contract: one Counters per sweep. The drivers never share a
// Counters across independent sweeps.
package obs

import (
	"strconv"
	"sync/atomic"
)

// Count names a summed counter: Add adds to it.
type Count uint8

// Gauge names a high-watermark gauge: Max raises it and never lowers it.
type Gauge uint8

// The counters, in -counters order.
const (
	// BasePropagations counts no-attack (baseline) propagations.
	BasePropagations Count = iota
	// FullPropagations counts full-kernel attack propagations.
	FullPropagations
	// DeltaPropagations counts incremental delta attack propagations.
	DeltaPropagations
	// RowsDown counts the result rows a no-attacker propagation emitted
	// (routing.Scratch.RowsDown): the graph's size, or a Vantage's cone.
	RowsDown
	// ConeRows counts the ASes each delta attack leg examined
	// (routing.Scratch.DeltaCone): what the delta engine's cost follows.
	ConeRows
	// BaselineHits counts baseline-cache hits: gets answered without a
	// propagation — the baseline a sweep shard holds, as it is or shifted in
	// place to another λ of the same victim (routing.Result.Shift).
	BaselineHits
	// BaselineMisses counts baseline-cache misses: keys propagated (or
	// failing validation), so prop_base == cache_miss on success.
	BaselineMisses
	// SkippedUnreachable counts draws skipped because the attacker never
	// receives the victim's route (the skippable sentinel class).
	SkippedUnreachable
	// SkippedIneffective counts draws skipped because the attack captured
	// nobody (a no-op instance with nothing to detect).
	SkippedIneffective
	// ChurnUpdates counts monitor update announcements emitted.
	ChurnUpdates
	// DetectPairs counts the (trigger, witness) pairs the detection rule
	// compared; the detection sweeps add one attack's pairs at a time.
	DetectPairs

	// The serve pipeline's ingest and detection traffic (DESIGN §5g).

	// FramesIn counts binary frames decoded off ingest sockets.
	FramesIn
	// FramesBad counts malformed, truncated or oversized ingest frames
	// (each ends its connection).
	FramesBad
	// ServeEnqueued counts updates accepted into a shard ring.
	ServeEnqueued
	// ServeDropped counts updates a full ring rejected under the drop
	// backpressure policy.
	ServeDropped
	// ServeBatches counts ObserveBatch queue drains.
	ServeBatches
	// Alarms counts detection alarms the streaming pipeline raised.
	Alarms
	numCounts
)

// The gauges, in -counters order after the counters, and numbered after
// them: a Count or a Gauge is its slot in Counters and its row in table.
// A gauge is max-merged, not summed, so the value bounds the peak working
// set of one shard or worker rather than accumulating over the sweep
// (memory gauges: DESIGN §5f).
const (
	// ScratchBytes is the per-worker propagation state (Scratch) footprint
	// of the largest single worker or shard.
	ScratchBytes = Gauge(numCounts) + iota
	// ArenaBytes is the largest path-arena footprint.
	ArenaBytes
	// CacheBytes is the largest baseline a sweep shard held. A shard holds
	// one, that of the victim it is on, in its Scratch's baseline slot, so
	// this is part of the scratch gauge, not added to it; the scale-smoke
	// gates bound it by one baseline's bytes.
	CacheBytes
	// CSRBytes is the topology (CSR graph) footprint. The graph is shared
	// read-only across workers, so a sweep records it once.
	CSRBytes
	// QueuePeak is the deepest any single serve ingest ring ever got: the
	// backlog high-watermark the soak gate asserts stays within the
	// configured depth.
	QueuePeak
	numSlots = int(numCounts) + iota
)

// table gives each slot its -counters key and its Snapshot field. Row i
// is slot i, so the rows follow the constants above. A row does not name
// its constant: the constant's only uses are its recorders', and a value
// no program records fails TestExportsHaveCallers.
var table = [numSlots]struct {
	key   string
	field func(*Snapshot) *int64
}{
	{"prop_base", func(s *Snapshot) *int64 { return &s.BasePropagations }},
	{"prop_full", func(s *Snapshot) *int64 { return &s.FullPropagations }},
	{"prop_delta", func(s *Snapshot) *int64 { return &s.DeltaPropagations }},
	{"rows_down", func(s *Snapshot) *int64 { return &s.RowsDown }},
	{"cone_rows", func(s *Snapshot) *int64 { return &s.ConeRows }},
	{"cache_hit", func(s *Snapshot) *int64 { return &s.BaselineHits }},
	{"cache_miss", func(s *Snapshot) *int64 { return &s.BaselineMisses }},
	{"skip_unreachable", func(s *Snapshot) *int64 { return &s.SkippedUnreachable }},
	{"skip_ineffective", func(s *Snapshot) *int64 { return &s.SkippedIneffective }},
	{"churn_updates", func(s *Snapshot) *int64 { return &s.ChurnUpdates }},
	{"detect_pairs", func(s *Snapshot) *int64 { return &s.DetectPairs }},
	{"frames_in", func(s *Snapshot) *int64 { return &s.FramesIn }},
	{"frames_bad", func(s *Snapshot) *int64 { return &s.FramesBad }},
	{"serve_enq", func(s *Snapshot) *int64 { return &s.ServeEnqueued }},
	{"serve_drop", func(s *Snapshot) *int64 { return &s.ServeDropped }},
	{"serve_batches", func(s *Snapshot) *int64 { return &s.ServeBatches }},
	{"alarms", func(s *Snapshot) *int64 { return &s.Alarms }},
	{"scratch_bytes", func(s *Snapshot) *int64 { return &s.ScratchBytes }},
	{"arena_bytes", func(s *Snapshot) *int64 { return &s.ArenaBytes }},
	{"cache_bytes", func(s *Snapshot) *int64 { return &s.CacheBytes }},
	{"csr_bytes", func(s *Snapshot) *int64 { return &s.CSRBytes }},
	{"queue_peak", func(s *Snapshot) *int64 { return &s.QueuePeak }},
}

// lineCounter is an atomic counter padded out to its own cache line.
// Sweep workers hammer different counters concurrently (one worker mostly
// bumps DeltaPropagations while another bumps BaselineHits); packed
// atomic.Int64 values would put eight logically-independent counters on a
// single 64-byte line and turn every increment into cross-core line
// ping-pong (false sharing). The padding buys independence at 64 bytes per
// counter — negligible for one Counters per sweep.
// BenchmarkCountersParallelPadded/Packed in obs_test.go demonstrates the
// difference.
type lineCounter struct {
	atomic.Int64
	_ [56]byte // pad to 64 bytes: one counter per cache line
}

// Counters aggregates one sweep's telemetry. The zero value is ready to
// use. Every method is safe for concurrent use and nil-safe, so drivers
// thread an optional *Counters unconditionally — a nil receiver makes all
// recording free no-ops.
type Counters struct {
	v [numSlots]lineCounter
}

// Add adds n to counter k.
func (c *Counters) Add(k Count, n int64) {
	if c != nil {
		c.v[k].Add(n)
	}
}

// Max raises gauge k to n if n is larger. Concurrent recorders converge on
// the maximum regardless of interleaving.
func (c *Counters) Max(k Gauge, n int64) {
	if c == nil {
		return
	}
	v := &c.v[k]
	for cur := v.Load(); n > cur; cur = v.Load() {
		if v.CompareAndSwap(cur, n) {
			return
		}
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
func (c *Counters) Snapshot() (s Snapshot) {
	if c != nil {
		for i := range table {
			*table[i].field(&s) = c.v[i].Load()
		}
	}
	return s
}

// AttackPropagations is the total attack-leg propagation count across
// engines — the number the candidate-budget pinning tests bound.
func (s Snapshot) AttackPropagations() int64 {
	return s.FullPropagations + s.DeltaPropagations
}

// String formats the snapshot as one stable key=value line (the
// -counters output format), in table order.
func (s Snapshot) String() string {
	b := make([]byte, 0, 512)
	for i := range table {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, table[i].key...)
		b = append(b, '=')
		b = strconv.AppendInt(b, *table[i].field(&s), 10)
	}
	return string(b)
}

// String formats the current counts; nil-safe.
func (c *Counters) String() string { return c.Snapshot().String() }
