// Command asppload replays the churn simulator's update corpus against a
// running asppserve daemon over TCP or a unix socket, as framed binary
// updates. Generate the corpus from the same -n/-seed/-monitors as the
// daemon so both sides agree on the monitor and prefix universe.
//
// Usage:
//
//	asppload -connect localhost:4790 -updates 1000000
//	asppload -unix /tmp/aspp.sock -rate 200000
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/topology"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "asppload: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "asppload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("asppload", flag.ContinueOnError)
	var (
		n       = fs.Int("n", 2000, "topology size (match the daemon)")
		seed    = fs.Int64("seed", 1, "topology seed (match the daemon)")
		monSpec = fs.String("monitors", "top40", "monitor set (match the daemon): topK or comma-separated ASNs")
		events  = fs.Int("events", 60, "churn events behind the corpus")
		connect = fs.String("connect", "", "TCP address of the asppserve ingest listener")
		unix    = fs.String("unix", "", "unix socket path of the asppserve ingest listener")
		total   = fs.Int64("updates", 200_000, "updates to send (corpus replays cyclically)")
		rate    = fs.Int64("rate", 0, "target updates/sec (0 = unthrottled)")
		report  = fs.Duration("report", 5*time.Second, "progress report interval")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*connect == "") == (*unix == "") {
		return errors.New("need exactly one of -connect or -unix")
	}

	cfg := topology.DefaultGenConfig(*n)
	cfg.Seed = *seed
	g, err := topology.Generate(cfg)
	if err != nil {
		return err
	}
	monitors, err := collector.ParseMonitors(*monSpec, g)
	if err != nil {
		return err
	}
	corpus, err := collector.ChurnCorpus(g, monitors, *events, *seed, nil)
	if err != nil {
		return err
	}
	// Pre-encode the whole corpus once; the send loop is then a pure
	// buffered write of precomputed frames.
	frames := make([][]byte, len(corpus))
	var arena []byte
	offs := make([]int, len(corpus)+1)
	for i, u := range corpus {
		arena, err = bgp.AppendUpdateBinary(arena, u)
		if err != nil {
			return err
		}
		offs[i+1] = len(arena)
	}
	for i := range frames {
		frames[i] = arena[offs[i]:offs[i+1]]
	}

	network, addr := "tcp", *connect
	if *unix != "" {
		network, addr = "unix", *unix
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Fprintf(out, "asppload: %d-update corpus → %s %s, sending %d updates\n",
		len(corpus), network, addr, *total)

	w := bufio.NewWriterSize(conn, 256*1024)
	start := time.Now()
	lastReport := start
	var sent int64
	for sent < *total {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := w.Write(frames[sent%int64(len(frames))]); err != nil {
			return fmt.Errorf("send after %d updates: %w", sent, err)
		}
		sent++
		if *rate > 0 && sent%1024 == 0 {
			ahead := time.Duration(sent)*time.Second/time.Duration(*rate) - time.Since(start)
			if ahead > time.Millisecond {
				w.Flush()
				time.Sleep(ahead)
			}
		}
		if sent%4096 == 0 && time.Since(lastReport) >= *report {
			lastReport = time.Now()
			fmt.Fprintf(out, "asppload: %d/%d updates (%.0f/s)\n",
				sent, *total, float64(sent)/time.Since(start).Seconds())
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "asppload: sent %d updates in %v = %.0f updates/sec\n",
		sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
	return nil
}
