package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"aspp/internal/obs"
	"aspp/internal/serve"
)

// The serve workloads drive an in-process serve.Pipeline through a real
// unix socket, the way asppload drives asppserve: one connection, binary
// frames, the pipeline's own ingest goroutine decoding them. The harness
// is the only load generator.

const (
	// openBurst is how many updates the open-loop generator sends per
	// scheduled write.
	openBurst = 32
	// alarmLogCap sizes the pipeline's alarm feed. The default (1024)
	// holds 5 ms of alarms at the open loop's rate, less than one
	// scheduling hiccup of the collector; 64k entries hold a third of a
	// second.
	alarmLogCap = 1 << 16
	// pollDepth is the least number of feed events the collector reads.
	pollDepth = 64
	// closedChunk is how many updates a closed-loop write carries.
	closedChunk = 512
	drainLimit  = 60 * time.Second
)

// rig is one pipeline with its socket, its single ingest connection and
// the alarm collector's state.
type rig struct {
	p        *serve.Pipeline
	counters *obs.Counters
	src      source
	ln       net.Listener
	conn     net.Conn
	sockPath string
	ingest   chan error

	sent     int64  // positions written so far
	verified int64  // positions sent while the alarm collector ran
	buf      []byte // frame scratch

	// Collector state, touched only by the collector goroutine while one
	// runs and by the phase's own goroutine otherwise.
	nextSeq        int64 // Seq of the next alarm event to consume
	depth          int   // how many feed events the next poll reads first
	matched, extra int64
	lost           int64 // events overwritten in the feed before they were read
	maxPos         int64
	open           *openPhase
}

// openPhase is the open-loop schedule the collector times alarms against.
type openPhase struct {
	from, to int64 // positions sent on schedule
	t0       time.Time
	interval time.Duration // between bursts
	rate     int
	windows  [][]float64 // alarm latency in ms, by the second its update was due in
}

// due is when position pos was scheduled to be sent.
func (o *openPhase) due(pos int64) time.Time {
	return o.t0.Add(time.Duration((pos-o.from)/openBurst) * o.interval)
}

func newRig(h *harness, c *serveCorpus) (*rig, error) {
	c.src.reset()
	r := &rig{counters: new(obs.Counters), src: c.src, ingest: make(chan error, 1), maxPos: -1, depth: pollDepth}
	var err error
	r.p, err = serve.NewPipeline(serve.Config{
		Shards: 1, Policy: serve.Block, Monitors: c.monitors, Rels: c.g,
		Counters: r.counters, AlarmLog: alarmLogCap,
	})
	if err != nil {
		return nil, err
	}
	r.p.Start()
	h.sockets++
	r.sockPath = filepath.Join(h.outDir, fmt.Sprintf("s%d-%d.sock", os.Getpid(), h.sockets))
	if rel, err := filepath.Rel(h.cwd, r.sockPath); err == nil && len(rel) < len(r.sockPath) {
		r.sockPath = rel // sun_path holds about 100 bytes
	}
	os.Remove(r.sockPath)
	if r.ln, err = net.Listen("unix", r.sockPath); err != nil {
		r.p.Close()
		return nil, err
	}
	go func() { r.ingest <- r.p.ServeIngest(r.ln) }()
	if r.conn, err = net.Dial("unix", r.sockPath); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close shuts the connection, the listener and the pipeline down and
// waits for the ingest goroutine.
func (r *rig) close() {
	if r.conn != nil {
		r.conn.Close()
	}
	r.ln.Close()
	r.p.Close()
	<-r.ingest
	os.Remove(r.sockPath)
}

// poll consumes the alarm events published since the last call. It reads
// the feed's newest pollDepth events; when those do not reach back to the
// next Seq it wants, it re-reads deeper, as deep as the feed goes, and only
// what has been overwritten by then is counted as lost.
func (r *rig) poll() {
	var evs []serve.AlarmEvent
	next := r.nextSeq
	for n := r.depth; ; {
		evs = r.p.Alarms(n)
		if len(evs) < n || evs[0].Seq <= next || n == alarmLogCap {
			break
		}
		// Reach back to next, with room for what arrives meanwhile.
		n = min(alarmLogCap, int(evs[len(evs)-1].Seq-next)+1+pollDepth)
	}
	// Next time read twice what was new this time: Alarms copies what it
	// returns, so reading deep every time would be the harness's largest
	// source of garbage.
	if len(evs) > 0 {
		r.depth = min(alarmLogCap, max(pollDepth, 2*int(evs[len(evs)-1].Seq+1-next)))
	}
	defer func() { r.nextSeq = next }()
	for _, ev := range evs {
		if ev.Seq < next {
			continue
		}
		r.lost += ev.Seq - next
		next = ev.Seq + 1
		pos, ok := r.src.expect(ev.Alarm, ev.Prefix)
		if !ok {
			r.extra++
			continue
		}
		r.matched++
		r.maxPos = max(r.maxPos, pos)
		if o := r.open; o != nil && pos >= o.from && pos < o.to {
			w := int((pos - o.from) / int64(o.rate))
			o.windows[w] = append(o.windows[w], float64(ev.Time.Sub(o.due(pos)))/1e6)
		}
	}
}

// collect runs body with the alarm collector polling beside it, then
// reads whatever is left in the feed.
func (r *rig) collect(body func() error) error {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				r.poll()
			}
		}
	}()
	err := body()
	close(stop)
	<-done
	r.poll()
	r.verified = r.sent
	return err
}

// send writes positions [r.sent, r.sent+n) in one write.
func (r *rig) send(n int64) error {
	r.buf = r.src.appendFrames(r.buf[:0], r.sent, r.sent+n)
	if _, err := r.conn.Write(r.buf); err != nil {
		return fmt.Errorf("ingest socket write: %w", err)
	}
	r.sent += n
	return nil
}

// drain waits until the pipeline has processed everything sent.
func (r *rig) drain(ctx context.Context) error {
	deadline := time.Now().Add(drainLimit)
	for r.p.Stats().Processed < r.sent {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pipeline processed %d of %d updates after %v", r.p.Stats().Processed, r.sent, drainLimit)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// closedPass sends n updates as fast as the socket takes them (closed
// loop: back-pressure paces the sender) and returns the time from the
// first write until the pipeline has processed the last update. The
// alarm collector does not run beside it: at saturation it would copy
// 100 MB/s out of the feed and take a fifth of a core from the pipeline
// being measured, so these updates' alarms are checked by count only.
func (r *rig) closedPass(ctx context.Context, n int64) (time.Duration, error) {
	t0 := time.Now()
	for left := n; left > 0; {
		k := min(left, closedChunk)
		if err := r.send(k); err != nil {
			return 0, err
		}
		left -= k
		if left%(64*closedChunk) == 0 && ctx.Err() != nil {
			return 0, ctx.Err()
		}
	}
	err := r.drain(ctx)
	return time.Since(t0), err
}

// openLoop sends at a fixed rate for secs seconds in bursts of openBurst,
// each burst at its due time: the generator sleeps until then (a sleep
// overshoots by some tens of µs; spinning instead would take a core from
// the pipeline and was measured to make the latency bimodal) and never
// skips or merges a burst — when it is behind it sends at once, and every
// update is still timed from when it was due. It returns how late each
// burst left, in ms.
func (r *rig) openLoop(ctx context.Context, rate int, secs float64) (*openPhase, []float64, error) {
	bursts := int64(secs * float64(rate) / openBurst)
	o := &openPhase{
		from: r.sent, to: r.sent + bursts*openBurst,
		t0:       time.Now().Add(5 * time.Millisecond),
		interval: time.Duration(float64(time.Second) * openBurst / float64(rate)),
		rate:     rate,
		windows:  make([][]float64, int(secs)+1),
	}
	perSec := int(float64(r.src.expectedAlarms(o.to)-r.src.expectedAlarms(o.from)) / secs)
	for w := range o.windows {
		o.windows[w] = make([]float64, 0, perSec+perSec/8)
	}
	late := make([]float64, 0, bursts)
	r.open = o
	err := r.collect(func() error {
		for b := int64(0); b < bursts; b++ {
			due := o.t0.Add(time.Duration(b) * o.interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late = append(late, float64(time.Since(due))/1e6)
			if err := r.send(openBurst); err != nil {
				return err
			}
			if b%4096 == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
		}
		return r.drain(ctx)
	})
	r.open = nil
	return o, late, err
}

// stateMB reads the pipeline's detection-state footprint once the worker
// has gone idle and published it.
func (r *rig) stateMB() float64 {
	prev := int64(-1)
	for i := 0; i < 200; i++ {
		time.Sleep(2 * time.Millisecond)
		b := r.p.MemoryBytes()
		if b == prev {
			break
		}
		prev = b
	}
	return float64(prev) / 1e6
}

// account adds this rig's operations to res: every update sent and every
// alarm the reference expects is one attempt. An update fails if it was
// dropped, refused or never processed. While the collector ran (the warm
// cycle and the open loop) each alarm was matched against the reference:
// it fails if it is missing (never seen, which includes those lost to feed
// overrun) or extra (unpredicted, different, or predicted for an update
// not yet sent). The closed-loop passes' alarms are checked by count.
func (r *rig) account(res *result, what string) {
	st := r.p.Stats()
	snap := r.counters.Snapshot()
	want := r.src.expectedAlarms(r.sent)
	res.Attempted += r.sent + want
	if bad := r.sent - st.Processed + st.Dropped + snap.FramesBad; bad != 0 {
		res.Failed += bad
		res.note("FAIL %s: %d of %d updates failed (processed %d, dropped %d, bad frames %d)", what, bad, r.sent, st.Processed, st.Dropped, snap.FramesBad)
	}
	checked := r.src.expectedAlarms(r.verified)
	if missing := checked - r.matched; missing > 0 {
		res.Failed += missing
		res.note("FAIL %s: %d of %d expected alarms missing (%d lost to feed overrun)", what, missing, checked, r.lost)
	}
	if r.extra > 0 || r.maxPos >= r.verified {
		res.Failed += max(r.extra, 1)
		res.note("FAIL %s: %d alarms the serial reference does not raise (furthest matched position %d of %d checked)", what, r.extra, r.maxPos, r.verified)
	}
	if diff := st.Alarms - want; diff != 0 {
		res.Failed += max(diff, -diff)
		res.note("FAIL %s: the pipeline raised %d alarms, the serial reference %d", what, st.Alarms, want)
	}
	res.dropped += st.Dropped
	res.framesBad += snap.FramesBad
	res.alarmsLost += r.lost
	res.alarms += want
}

// serveSpec describes one serve workload.
type serveSpec struct {
	name     string
	monitors int
	// build derives the corpus from the seed.
	build func(h *harness, parent int, seed int64) (*serveCorpus, error)
	// warm is how many positions set-up replays before measuring.
	warm func(c *serveCorpus) int64
	// passUpdates is the size of one closed-loop pass; fresh says whether
	// each pass needs a pipeline of its own.
	passUpdates func(sc scale) int64
	fresh       bool
}

var serveSpecs = map[string]serveSpec{
	"serve-churn": {
		name: "serve-churn",
		build: func(h *harness, parent int, seed int64) (*serveCorpus, error) {
			g, monitors, updates, err := churnUpdates(h.tr, parent, h.scale, seed, h.scale.churnMonitors)
			if err != nil {
				return nil, err
			}
			src, err := newChurnSource(updates, monitors, g)
			if err != nil {
				return nil, err
			}
			return &serveCorpus{g: g, monitors: monitors, src: src, updates: updates}, nil
		},
		// One cycle fills every (prefix, monitor) slot, so the measured
		// phases see only the steady replace path.
		warm:        func(c *serveCorpus) int64 { return int64(len(c.updates)) },
		passUpdates: func(sc scale) int64 { return sc.churnPassUpdates },
	},
	"serve-growth": {
		name: "serve-growth",
		build: func(h *harness, parent int, seed int64) (*serveCorpus, error) {
			g, monitors, updates, err := churnUpdates(h.tr, parent, h.scale, seed, h.scale.growthMonitors)
			if err != nil {
				return nil, err
			}
			src, err := newGrowthSource(updates, monitors, g)
			if err != nil {
				return nil, err
			}
			return &serveCorpus{g: g, monitors: monitors, src: src, updates: updates}, nil
		},
		warm:        func(*serveCorpus) int64 { return 0 },
		passUpdates: func(sc scale) int64 { return growthPositions(sc.growthPassPrefixes) },
		fresh:       true,
	},
}

// runServe measures one serve workload. parent is the traced pass's span
// for it, or -1.
func (h *harness) runServe(ctx context.Context, spec serveSpec, seed int64, parent int) (*result, error) {
	res := newResult()
	tr := h.tr

	// Set-up, several times over; the last one is kept.
	var c *serveCorpus
	var r *rig
	var setups []float64
	for begun := time.Now(); h.scale.setUpAgain(len(setups), time.Since(begun)); {
		if r != nil {
			r.close()
		}
		id := tr.start("serve.setup", parent)
		t0 := time.Now()
		var err error
		if c, err = spec.build(h, id, seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		if r, err = newRig(h, c); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		if n := spec.warm(c); n > 0 {
			err := r.collect(func() error {
				_, err := r.closedPass(ctx, n)
				return err
			})
			if err != nil {
				r.close()
				return nil, fmt.Errorf("%s warm pass: %w", spec.name, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(id)
	}
	defer func() { r.close() }()
	res.note("%s: %s", spec.name, c.src.describe())

	// Phase A: open loop at the fixed rate, for the alarm latency.
	openSecs := h.scale.openSecs
	if openSecs == 0 {
		openSecs = h.seconds / 2
	}
	id := tr.start("serve.open_loop", parent)
	o, late, err := r.openLoop(ctx, h.scale.rate, openSecs)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s open loop: %w", spec.name, err)
	}
	var all []float64
	for _, w := range o.windows {
		all = append(all, w...)
	}
	sort.Float64s(all)
	if len(all) == 0 {
		return nil, fmt.Errorf("%s: the open-loop phase raised no alarm to time", spec.name)
	}
	st := r.p.Stats()
	quiet, p50s := quietWindows(o.windows)
	res.note("%s: open-loop alarm latency p50 per 1-s window: %.3f ms", spec.name, p50s)
	res.set("result_latency_ms", quiet, "ms")
	res.info("alarm_latency_p50_ms", percentile(all, 0.5), "ms")
	res.info("alarm_latency_p99_ms", percentile(all, 0.99), "ms")
	res.info("alarm_latency_p999_ms", percentile(all, 0.999), "ms")
	res.info("alarm_latency_samples", float64(len(all)), "count")
	res.info("gen_late_p50_ms", median(late), "ms")
	res.info("gen_late_p99_ms", percentile(sorted(late), 0.99), "ms")
	res.info("open_rate", float64(h.scale.rate), "1/s")
	res.info("internal_p50_us", float64(st.P50Ns)/1e3, "us")
	res.info("internal_p99_us", float64(st.P99Ns)/1e3, "us")
	o, all, late = nil, nil, nil // the samples are not part of the memory being measured

	// Phase B: closed loop at saturation, for the throughput.
	passes := h.scale.passes
	if passes == 0 {
		passes = max(1, int(h.seconds/6))
	}
	n := spec.passUpdates(h.scale)
	var walls []float64
	var stateMB float64
	for i := 0; i < passes; i++ {
		if spec.fresh {
			r.account(res, fmt.Sprintf("pipeline %d", i))
			r.close()
			runtime.GC()
			debug.FreeOSMemory()
			if r, err = newRig(h, c); err != nil {
				return nil, err
			}
		}
		id := tr.start("serve.closed_pass", parent)
		wall, err := r.closedPass(ctx, n)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s closed-loop pass %d: %w", spec.name, i, err)
		}
		walls = append(walls, wall.Seconds())
		stateMB = r.stateMB()
	}
	r.account(res, "last pipeline")
	st = r.p.Stats()

	res.set("wall_s", minOf(walls), "s")
	res.set("peak_rss_mb", settledRSSMB(), "MB")
	res.set("setup_s", minOf(setups), "s")
	res.info("pass_updates", float64(n), "count")
	res.info("updates_per_s", float64(n)/minOf(walls), "1/s")
	res.info("wall_median_s", median(walls), "s")
	res.note("%s: closed-loop passes took %.3f s", spec.name, walls)
	res.info("state_mb", stateMB, "MB")
	res.info("queue_peak", float64(st.QueuePeak), "count")
	if st.Batches > 0 {
		res.info("mean_batch", float64(st.Processed)/float64(st.Batches), "count")
	}
	res.exact["state_mb"] = fmt.Sprint(stateMB)
	res.exact["alarms"] = fmt.Sprint(res.alarms)
	return res, nil
}

// settledRSSMB is this process's resident set once its garbage is
// collected and returned to the OS. The pipeline lives in this process, so
// at the end of the last pass this is the detection state at its largest,
// the rings, the alarm feed and the harness's own corpus. The process's
// high-water mark would add the Go collector's head-room over the
// harness's garbage (the alarm events it copies out of the feed), which
// swung between 95 and 142 MB on serve-churn, whose state is 0.2 MB.
//
// What the runtime holds free and would not return even then is taken
// off: it keeps free pages that share a huge page with live ones, up to
// 4 MB depending on where the phases' allocations happened to land, which
// on serve-churn's 18 MB spread the figure by a sixth from run to run.
func settledRSSMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		var size, resident int64
		if n, _ := fmt.Sscan(string(data), &size, &resident); n == 2 {
			return float64(resident*int64(os.Getpagesize())-int64(ms.HeapIdle-ms.HeapReleased)) / (1 << 20)
		}
	}
	var ru syscall.Rusage // no /proc: fall back to the high-water mark
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
