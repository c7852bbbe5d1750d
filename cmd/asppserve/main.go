// Command asppserve runs the ASPP-interception detector as a streaming
// daemon (DESIGN §5g): updates arrive as binary frames over TCP or unix
// sockets, are sharded by prefix across detector instances, and alarms
// plus telemetry are exposed over HTTP.
//
// Usage:
//
//	asppserve -listen :4790 -http :8080 -monitors top40
//	asppserve -selftest -updates 500000
//	asppserve -replay feed.log -n 4000 -monitors top100
//
// The daemon derives its monitor set and relationship data from a
// topology: a serial-2 file (-topo) or, by default, a generated one (the
// same synthetic Internet the rest of the tool chain uses), so a paired
// cmd/asppload run against the same -n/-seed speaks the same monitor and
// prefix universe.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/detect"
	"aspp/internal/obs"
	"aspp/internal/serve"
	"aspp/internal/topology"
)

// alarmFeed is the least capacity of the pipeline's recent-alarm feed,
// which -replay reads each chunk's alarms back from. The feed holds at
// least one update's alarms, one per witness: m−1 for m monitors.
const alarmFeed = 1024

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "asppserve: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "asppserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("asppserve", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 2000, "topology size backing the monitor set and relationships")
		seed     = fs.Int64("seed", 1, "topology seed")
		topo     = fs.String("topo", "", "serial-2 relationship file (overrides -n)")
		monSpec  = fs.String("monitors", "top40", "monitor set: topK (by degree) or comma-separated ASNs")
		shards   = fs.Int("shards", 0, "detector shards (0 = GOMAXPROCS)")
		depth    = fs.Int("depth", 4096, "per-shard ring depth in updates (rounded up to a power of two)")
		batch    = fs.Int("batch", 256, "max updates drained per worker pass")
		policy   = fs.String("policy", "block", "full-ring policy: block (lossless) or drop (shed)")
		listen   = fs.String("listen", "", "TCP ingest address (e.g. :4790)")
		unixSock = fs.String("unix", "", "unix socket ingest path")
		httpAddr = fs.String("http", "", "HTTP address for /metrics, /alarms, /healthz")
		selftest = fs.Bool("selftest", false, "replay the churn simulator through the pipeline and report throughput")
		replay   = fs.String("replay", "", "push a recorded text update stream ('-' for stdin) through the pipeline once, print its alarms and incidents, and exit")
		updates  = fs.Int64("updates", 200_000, "updates to replay in -selftest")
		events   = fs.Int("events", 60, "churn events behind the -selftest corpus")
		counters = fs.Bool("counters", false, "print telemetry counters on exit")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}

	pol, err := serve.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	cfg := topology.DefaultGenConfig(*n)
	cfg.Seed = *seed
	g, err := topology.Open(*topo, cfg)
	if err != nil {
		return err
	}
	monitors, err := collector.ParseMonitors(*monSpec, g)
	if err != nil {
		return err
	}
	obsCounters := &obs.Counters{}
	feed := max(alarmFeed, len(monitors)-1)
	p, err := serve.NewPipeline(serve.Config{
		Shards: *shards, Depth: *depth, Batch: *batch, Policy: pol,
		Monitors: monitors, Rels: g, Counters: obsCounters, AlarmLog: feed,
	})
	if err != nil {
		return err
	}
	p.Start()
	defer p.Close()
	if *counters {
		defer func() {
			p.Stats() // records queue-peak and memory gauges into the counters
			fmt.Fprintf(out, "counters: %s\n", obsCounters.Snapshot())
		}()
	}

	if *selftest {
		return runSelftest(p, g, monitors, *updates, *events, *seed, obsCounters, out)
	}
	if *replay != "" {
		return runReplay(p, *replay, len(monitors), feed, out)
	}
	if *listen == "" && *unixSock == "" {
		return errors.New("need -listen, -unix, -selftest or -replay (see -h)")
	}

	fmt.Fprintf(out, "asppserve: %d shards × depth %d, batch %d, policy %s, %d monitors (GOMAXPROCS %d)\n",
		p.Shards(), p.Stats().Depth, *batch, pol, len(monitors), runtime.GOMAXPROCS(0))
	errc := make(chan error, 3)
	var listeners []net.Listener
	addListener := func(network, addr string) error {
		l, err := net.Listen(network, addr)
		if err != nil {
			return err
		}
		listeners = append(listeners, l)
		fmt.Fprintf(out, "asppserve: ingest on %s %s\n", network, l.Addr())
		go func() { errc <- p.ServeIngest(l) }()
		return nil
	}
	if *listen != "" {
		if err := addListener("tcp", *listen); err != nil {
			return err
		}
	}
	if *unixSock != "" {
		os.Remove(*unixSock) // stale socket from a previous run
		if err := addListener("unix", *unixSock); err != nil {
			return err
		}
		defer os.Remove(*unixSock)
	}
	var httpSrv *http.Server
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "asppserve: http on %s\n", hl.Addr())
		httpSrv = &http.Server{Handler: p.Handler()}
		go func() { errc <- httpSrv.Serve(hl) }()
	}
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
		if httpSrv != nil {
			httpSrv.Close()
		}
	}()

	select {
	case <-ctx.Done():
		fmt.Fprintln(out, "asppserve: shutting down")
		s := p.Stats()
		fmt.Fprintf(out, "asppserve: processed %d updates, %d alarms, %d dropped, p99 %v\n",
			s.Processed, s.Alarms, s.Dropped, time.Duration(s.P99Ns))
		return ctx.Err()
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// runSelftest replays the churn simulator's update corpus through the
// pipeline at full speed and reports sustained throughput and latency —
// the same load path TestServeSmoke and the benchmarks use.
func runSelftest(p *serve.Pipeline, g *topology.Graph, monitors []bgp.ASN, total int64, events int, seed int64, counters *obs.Counters, out io.Writer) error {
	corpus, err := collector.ChurnCorpus(g, monitors, events, seed, counters)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "selftest: %d-update churn corpus, replaying %d updates through %d shards\n",
		len(corpus), total, p.Shards())
	rep, err := p.RunLoad(corpus, total)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "selftest: %d updates in %v = %.0f updates/sec\n",
		rep.Processed, rep.Elapsed.Round(time.Millisecond), rep.UpdatesPerSec)
	fmt.Fprintf(out, "selftest: latency p50 %v p99 %v, %d alarms, %d dropped\n",
		time.Duration(rep.P50Ns), time.Duration(rep.P99Ns), rep.Alarms, rep.Dropped)
	if rep.Dropped > 0 {
		return fmt.Errorf("selftest dropped %d updates", rep.Dropped)
	}
	return nil
}

// runReplay pushes a recorded text stream through the pipeline, each
// update once, and prints what the shards raised. Every chunk drains
// before the next is pushed and is small enough that its alarms fit the
// feed of capacity feed: an update raises at most one alarm per witness,
// m−1 of them for m monitors. A chunk whose alarms the feed did not keep
// is an error. Within a chunk alarms print in (prefix, Seq) order, and a
// prefix lives on one shard, so the output is the same at any -shards.
func runReplay(p *serve.Pipeline, path string, nMon, feed int, out io.Writer) error {
	r := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	ups, err := bgp.ReadUpdatesText(r)
	if err != nil {
		return fmt.Errorf("replay %s: %w", path, err)
	}
	chunk := len(ups)
	if nMon > 1 {
		chunk = max(1, feed/(nMon-1))
	}
	tr := serve.NewIncidentTracker()
	var alarms, high, dropped int64
	for lo := 0; lo < len(ups); lo += chunk {
		part := ups[lo:min(lo+chunk, len(ups))]
		rep, err := p.RunLoad(part, int64(len(part)))
		if err != nil {
			return err
		}
		dropped += rep.Dropped
		evs := p.Alarms(int(rep.Alarms))
		if int64(len(evs)) < rep.Alarms {
			return fmt.Errorf("replay: updates %d-%d raised %d alarms, the feed kept %d", lo+1, lo+len(part), rep.Alarms, len(evs))
		}
		slices.SortFunc(evs, func(a, b serve.AlarmEvent) int {
			return cmp.Or(serve.ComparePrefixes(a.Prefix, b.Prefix), cmp.Compare(a.Seq, b.Seq))
		})
		for _, ev := range evs {
			fmt.Fprintf(out, "%v %v\n", ev.Prefix, ev.Alarm)
			tr.Track(ev)
			if ev.Alarm.Confidence == detect.High {
				high++
			}
		}
		alarms += int64(len(evs))
	}
	fmt.Fprintf(out, "%d updates, %d alarms (%d high), %d dropped\n", len(ups), alarms, high, dropped)
	for _, inc := range tr.Open() {
		fmt.Fprintln(out, inc)
	}
	if dropped > 0 {
		return fmt.Errorf("replay dropped %d updates", dropped)
	}
	return nil
}
