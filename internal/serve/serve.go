package serve

import (
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aspp/internal/bgp"
	"aspp/internal/detect"
	"aspp/internal/obs"
)

// Policy selects what a producer does when a shard ring is full.
type Policy uint8

const (
	// Block applies backpressure: the producer yields until a slot frees
	// (a TCP sender eventually stalls in its socket buffer). No update is
	// ever lost.
	Block Policy = iota + 1
	// Drop sheds load: the update is discarded and counted (serve_drop),
	// keeping ingest latency flat at the cost of detection coverage.
	Drop
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// ParsePolicy parses "block" or "drop".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop":
		return Drop, nil
	default:
		return 0, fmt.Errorf("serve: unknown backpressure policy %q (want block or drop)", s)
	}
}

// Config parameterizes a Pipeline.
type Config struct {
	// Shards is the number of detector shards (and rings and workers);
	// 0 scales to GOMAXPROCS.
	Shards int
	// Depth is the per-shard ring capacity in updates (rounded up to a
	// power of two; default 4096).
	Depth int
	// Batch is the maximum updates drained per worker pass (default 256).
	Batch int
	// Policy is the full-ring backpressure policy (default Block).
	Policy Policy
	// Monitors is the vantage-point set every shard detector watches.
	Monitors []bgp.ASN
	// Rels supplies AS relationships to the detection hint rules; nil
	// restricts detection to high-confidence segment conflicts.
	Rels detect.RelQuerier
	// Counters collects the pipeline's telemetry, which Stats, RunLoad's
	// report and /metrics read back, so one Counters serves one pipeline;
	// nil gives the pipeline a private one.
	Counters *obs.Counters
	// AlarmLog is the capacity of the recent-alarm feed (default 1024).
	AlarmLog int
}

// AlarmEvent is one entry of the pipeline's alarm feed: a detection
// alarm annotated with the prefix whose update triggered it and the
// enqueue-to-alarm latency of that update.
type AlarmEvent struct {
	Seq       int64
	Time      time.Time
	Prefix    netip.Prefix
	Alarm     detect.Alarm
	LatencyNs int64
}

// alarmLog is a fixed-capacity overwrite-oldest feed of AlarmEvents.
type alarmLog struct {
	mu   sync.Mutex
	buf  []AlarmEvent
	next int64 // total events ever published; buf[(next-1) % cap] is newest
}

func newAlarmLog(capacity int) *alarmLog {
	return &alarmLog{buf: make([]AlarmEvent, capacity)}
}

func (l *alarmLog) publish(prefix netip.Prefix, alarms []detect.Alarm, latNs int64) {
	now := time.Now()
	l.mu.Lock()
	for _, a := range alarms {
		l.buf[l.next%int64(len(l.buf))] = AlarmEvent{
			Seq: l.next, Time: now, Prefix: prefix, Alarm: a, LatencyNs: latNs,
		}
		l.next++
	}
	l.mu.Unlock()
}

// last returns up to n most recent events, oldest first; none for n <= 0.
func (l *alarmLog) last(n int) []AlarmEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	have := l.next
	if have > int64(len(l.buf)) {
		have = int64(len(l.buf))
	}
	if int64(n) > have {
		n = int(have)
	}
	n = max(n, 0)
	out := make([]AlarmEvent, 0, n)
	for i := l.next - int64(n); i < l.next; i++ {
		out = append(out, l.buf[i%int64(len(l.buf))])
	}
	return out
}

// Pipeline is the prefix-sharded streaming detection engine: producers
// (ingest connections or RunLoad) hash each update's prefix to a shard,
// push it onto that shard's bounded SPSC ring, and one worker goroutine
// per shard drains its ring in batches through Detector.ObserveBatch.
// Detection state never crosses shards, so the workers share nothing but
// the (read-only) relationship graph and the telemetry sinks.
type Pipeline struct {
	cfg   Config
	dets  []*detect.Detector // one per shard, owned by that shard's worker
	rings []*ring
	hist  *latencyHist
	feed  *alarmLog
	epoch time.Time

	// gauges holds each shard detector's footprint and sizes as published
	// by its worker after every batch. Stats and MemoryBytes read these
	// instead of the detectors themselves: detector internals are
	// worker-owned and unsynchronized, so a foreign reader — the HTTP
	// /metrics handler — must never touch them while workers run.
	gauges []shardGauges

	closing     atomic.Bool // producers refuse new work, blocked pushes bail
	stopWorkers atomic.Bool // set once producers quiesced; workers may drain and exit
	started     bool
	workers     sync.WaitGroup
	producers   sync.WaitGroup // live producers (handleConn, RunLoad)

	processed atomic.Int64

	connMu sync.Mutex
	conns  map[connCloser]struct{}
}

// shardGauges is what one shard's worker publishes of its detector:
// Detector.MemoryBytes and Detector.Sizes.
type shardGauges struct{ mem, prefixes, rows, routes atomic.Int64 }

func (g *shardGauges) publish(d *detect.Detector) {
	prefixes, rows, routes := d.Sizes()
	g.mem.Store(d.MemoryBytes())
	g.prefixes.Store(int64(prefixes))
	g.rows.Store(int64(rows))
	g.routes.Store(int64(routes))
}

// connCloser is the slice of net.Conn the pipeline needs for shutdown.
type connCloser interface{ Close() error }

// NewPipeline validates cfg, applies defaults and builds the shard
// state. Call Start to launch the workers.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if len(cfg.Monitors) == 0 {
		return nil, errors.New("serve: no monitors configured")
	}
	if cfg.Shards < 0 || cfg.Depth < 0 || cfg.Batch < 0 || cfg.AlarmLog < 0 {
		return nil, errors.New("serve: negative shard/depth/batch/alarmlog")
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Depth == 0 {
		cfg.Depth = 4096
	}
	if cfg.Batch == 0 {
		cfg.Batch = 256
	}
	if cfg.Batch > cfg.Depth {
		return nil, fmt.Errorf("serve: batch %d exceeds ring depth %d", cfg.Batch, cfg.Depth)
	}
	if cfg.Policy == 0 {
		cfg.Policy = Block
	}
	if cfg.Policy != Block && cfg.Policy != Drop {
		return nil, fmt.Errorf("serve: bad policy %v", cfg.Policy)
	}
	if cfg.AlarmLog == 0 {
		cfg.AlarmLog = 1024
	}
	if cfg.Counters == nil {
		cfg.Counters = new(obs.Counters)
	}
	p := &Pipeline{
		cfg:   cfg,
		dets:  make([]*detect.Detector, cfg.Shards),
		rings: make([]*ring, cfg.Shards),
		hist:  &latencyHist{},
		feed:  newAlarmLog(cfg.AlarmLog),
		epoch: time.Now(),
		conns: make(map[connCloser]struct{}),
	}
	p.gauges = make([]shardGauges, cfg.Shards)
	for i := range p.rings {
		p.rings[i] = newRing(cfg.Depth)
		p.dets[i] = detect.NewDetector(cfg.Monitors, cfg.Rels)
		p.gauges[i].publish(p.dets[i]) // baseline before workers exist
	}
	p.cfg.Depth = len(p.rings[0].slots) // the power-of-two capacity, as Stats reports it
	return p, nil
}

// Shards returns the shard count.
func (p *Pipeline) Shards() int { return len(p.rings) }

// now is the pipeline's monotonic clock: nanoseconds since construction.
func (p *Pipeline) now() int64 { return int64(time.Since(p.epoch)) }

// Start launches one worker per shard.
func (p *Pipeline) Start() {
	if p.started {
		return
	}
	p.started = true
	p.workers.Add(len(p.rings))
	for i := range p.rings {
		go p.worker(i)
	}
}

// Close stops the pipeline in two phases: first producers are quiesced —
// new ones are refused, blocked pushes bail, open ingest connections are
// closed, and Close waits for every producer goroutine to return — and
// only then are workers told they may exit once their ring is empty.
// That ordering upholds the Block policy's no-loss contract: a producer
// that found ring space just before Close cannot land an update after
// its worker has exited, so every accepted update is processed.
// Idempotent.
func (p *Pipeline) Close() {
	p.closing.Store(true)
	p.connMu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.connMu.Unlock()
	p.producers.Wait()
	p.stopWorkers.Store(true)
	for _, r := range p.rings {
		r.signal()
	}
	if p.started {
		p.workers.Wait()
		p.started = false
	}
}

// DrainQueues blocks until every ring is empty (all accepted updates
// processed). Producers must be quiescent for this to terminate.
func (p *Pipeline) DrainQueues() {
	for {
		empty := true
		for _, r := range p.rings {
			if r.depth() != 0 {
				empty = false
				break
			}
		}
		if empty {
			return
		}
		runtime.Gosched()
	}
}

// lingerNs is how long a worker that found its ring empty polls it before
// parking on the ring's wake channel: a burst reaches the ring an update at
// a time, and waking a parked worker costs more than the gap.
const lingerNs = 10_000

// worker drains shard si's ring: batches are split into same-prefix runs
// (the natural shape of transition streams) so alarms can be attributed
// to their prefix, each run flows through ObserveBatch, and
// enqueue-to-completion latency is recorded per update with one clock
// read per run. The gauges and counters are published, and only then are
// the slots released (advance), since the drained updates alias slot path
// storage and a ring read empty must mean current gauges.
func (p *Pipeline) worker(si int) {
	defer p.workers.Done()
	r := p.rings[si]
	d, g := p.dets[si], &p.gauges[si]
	batch := make([]bgp.Update, p.cfg.Batch)
	enq := make([]int64, p.cfg.Batch)
	alarms := make([]detect.Alarm, 0, 16)
	for {
		n := r.drain(batch, enq)
		if n == 0 {
			if p.stopWorkers.Load() && r.depth() == 0 {
				return
			}
			for t := p.now(); r.depth() == 0 && p.now()-t < lingerNs; {
			}
			if r.depth() == 0 {
				<-r.wake // a push after the check above has left a token
			}
			continue
		}
		for i := 0; i < n; {
			j := i + 1
			for j < n && batch[j].Prefix == batch[i].Prefix {
				j++
			}
			alarms = d.ObserveBatch(batch[i:j], alarms[:0])
			done := p.now()
			for k := i; k < j; k++ {
				p.hist.record(done - enq[k])
			}
			if len(alarms) > 0 {
				p.cfg.Counters.Add(obs.Alarms, int64(len(alarms)))
				p.feed.publish(batch[i].Prefix, alarms, done-enq[j-1])
			}
			i = j
		}
		g.publish(d)
		p.processed.Add(int64(n))
		p.cfg.Counters.Add(obs.ServeBatches, 1)
		r.advance(n)
	}
}

// Stats is a point-in-time view of the pipeline, also pushed into the
// obs gauges so -counters output and /metrics agree. Depth is one ring's
// capacity; Prefixes, Rows and Routes sum the shard detectors' Sizes.
type Stats struct {
	Shards, Depth                                    int
	Enqueued, Processed, Dropped, Alarms, Batches    int64
	QueuePeak, QueueDepth, P50Ns, P99Ns, MemoryBytes int64
	Prefixes, Rows, Routes                           int64
	Uptime                                           time.Duration
}

// Stats snapshots the pipeline counters, latency quantiles and memory
// footprint, recording the high-watermark gauges as a side effect.
func (p *Pipeline) Stats() Stats {
	cs := p.cfg.Counters.Snapshot()
	s := Stats{
		Shards:    len(p.rings),
		Depth:     p.cfg.Depth,
		Enqueued:  cs.ServeEnqueued,
		Processed: p.processed.Load(),
		Dropped:   cs.ServeDropped,
		Alarms:    cs.Alarms,
		Batches:   cs.ServeBatches,
		P50Ns:     p.hist.quantile(0.50),
		P99Ns:     p.hist.quantile(0.99),
		Uptime:    time.Since(p.epoch),
	}
	var arenaPeak int64
	for _, r := range p.rings {
		s.QueueDepth += r.depth()
		if pk := r.peak.Load(); pk > s.QueuePeak {
			s.QueuePeak = pk
		}
		s.MemoryBytes += r.memoryBytes() // slot headers; slot-owned path bodies excluded
	}
	// Detector footprints come from the worker-published gauges, never
	// the detectors themselves: Stats runs on foreign goroutines (the
	// /metrics handler) while workers mutate detector state.
	for i := range p.gauges {
		g := &p.gauges[i]
		b := g.mem.Load()
		s.MemoryBytes += b
		arenaPeak = max(arenaPeak, b)
		s.Prefixes += g.prefixes.Load()
		s.Rows += g.rows.Load()
		s.Routes += g.routes.Load()
	}
	p.cfg.Counters.Max(obs.QueuePeak, s.QueuePeak)
	p.cfg.Counters.Max(obs.ArenaBytes, arenaPeak)
	return s
}

// Alarms returns up to n most recent alarm events, oldest first; none for
// n <= 0.
func (p *Pipeline) Alarms(n int) []AlarmEvent { return p.feed.last(n) }

// MemoryBytes is the live resident footprint of the detection state —
// the quantity the soak gate asserts plateaus. It sums the
// worker-published per-shard gauges, so unlike Detector.MemoryBytes it
// is safe to call while the pipeline is ingesting.
func (p *Pipeline) MemoryBytes() int64 {
	var b int64
	for i := range p.gauges {
		b += p.gauges[i].mem.Load()
	}
	return b
}

// LoadReport summarizes one RunLoad execution. Offered, Accepted and
// Dropped count this run's pushes, so Offered == Accepted + Dropped holds
// for every run. Processed and Alarms are deltas of the pipeline's
// counters over the run and include any concurrent producer's work.
type LoadReport struct {
	// Offered is the number of updates pushed at the rings (a push the
	// closing pipeline refused ends the run and is not offered); Accepted
	// excludes drop-policy rejections; Dropped counts them; Processed
	// went through detection.
	Offered, Accepted, Dropped, Processed int64
	// Alarms is the number of alarms raised while the run lasted.
	Alarms int64
	// Elapsed covers first push to final drain; UpdatesPerSec is
	// Processed over Elapsed.
	Elapsed       time.Duration
	UpdatesPerSec float64
	// P50Ns/P99Ns are enqueue-to-alarm latency quantiles over the
	// pipeline's lifetime histogram.
	P50Ns, P99Ns int64
}

// RunLoad replays corpus cyclically through the pipeline, offering
// corpus[k % len(corpus)] for k < total from the calling goroutine. It is
// one producer, registered like an ingest connection, and pushes each
// update onto its prefix's shard ring through the same push. Returns after
// every ring has drained, so every accepted update has been processed.
func (p *Pipeline) RunLoad(corpus []bgp.Update, total int64) (LoadReport, error) {
	if !p.started {
		return LoadReport{}, errors.New("serve: pipeline not started")
	}
	if len(corpus) == 0 || total <= 0 {
		return LoadReport{}, errors.New("serve: empty load corpus")
	}
	// Register under connMu, as ServeIngest does: Close sets closing and
	// then waits for registered producers before letting workers exit, so
	// an update accepted here is always processed.
	p.connMu.Lock()
	if p.closing.Load() {
		p.connMu.Unlock()
		return LoadReport{}, errors.New("serve: pipeline closing")
	}
	p.producers.Add(1)
	p.connMu.Unlock()

	block := p.cfg.Policy == Block
	startProcessed := p.processed.Load()
	startAlarms := p.cfg.Counters.Snapshot().Alarms
	start := time.Now()
	var rep LoadReport
	now := p.now()
	for k := int64(0); k < total; k++ {
		if k&31 == 0 {
			now = p.now() // refresh the enqueue stamp every 32 pushes
		}
		u := &corpus[k%int64(len(corpus))]
		if p.rings[detect.PrefixShard(u.Prefix, len(p.rings))].push(u, now, block, p.closing.Load) {
			rep.Accepted++
		} else if p.closing.Load() {
			break
		} else {
			rep.Dropped++
		}
	}
	rep.Offered = rep.Accepted + rep.Dropped
	p.cfg.Counters.Add(obs.ServeEnqueued, rep.Accepted)
	p.cfg.Counters.Add(obs.ServeDropped, rep.Dropped)
	p.producers.Done()
	p.DrainQueues()

	rep.Elapsed = time.Since(start)
	rep.Processed = p.processed.Load() - startProcessed
	rep.Alarms = p.cfg.Counters.Snapshot().Alarms - startAlarms
	rep.P50Ns, rep.P99Ns = p.hist.quantile(0.50), p.hist.quantile(0.99)
	if sec := rep.Elapsed.Seconds(); sec > 0 {
		rep.UpdatesPerSec = float64(rep.Processed) / sec
	}
	return rep, nil
}
