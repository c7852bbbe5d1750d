// Command asppsim simulates a single ASPP-based prefix interception
// attack and reports its impact: how much of the Internet adopts the
// stripped route, who was captured, and example path changes.
//
// Usage:
//
//	asppsim -n 4000 -victim auto -attacker auto -lambda 3
//	asppsim -topo rels.txt -victim 32934 -attacker 9318 -lambda 5 -keep 3
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/signal"
	"syscall"

	"aspp"
	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/experiment"
	"aspp/internal/topology"
)

func main() {
	// Ctrl-C / SIGTERM cancels between the expensive stages (topology
	// generation, simulation, stream writing); a second signal kills the
	// process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "asppsim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "asppsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("asppsim", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 4000, "generated topology size")
		seed     = fs.Int64("seed", 1, "random seed")
		topo     = fs.String("topo", "", "serial-2 relationship file (overrides -n)")
		victim   = fs.String("victim", "auto", "victim ASN, or 'auto' (largest tier-1)")
		attacker = fs.String("attacker", "auto", "attacker ASN, or 'auto' (second tier-1)")
		lambda   = fs.Int("lambda", 3, "victim's prepend count λ")
		keep     = fs.Int("keep", 1, "origin copies the attacker leaves")
		violate  = fs.Bool("violate", false, "attacker ignores valley-free export rules")
		show     = fs.Int("show", 5, "example captured ASes to print")
		updOut   = fs.String("updates-out", "", "write the monitors' update stream (steady state + attack) to this file; replay it with asppserve -replay and the same -n/-seed (or -topo) and -monitors topK")
		nMon     = fs.Int("monitors", 100, "top-degree monitor count for -updates-out")
		counters = fs.Bool("counters", false, "report propagation telemetry for the simulation")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nMon < 1 {
		return fmt.Errorf("-monitors %d: monitor count must be >= 1", *nMon)
	}
	if *show < 0 {
		return fmt.Errorf("-show %d: example count must be >= 0", *show)
	}

	internet, err := aspp.OpenInternet(*topo, aspp.WithSize(*n), aspp.WithSeed(*seed))
	if err != nil {
		return err
	}
	g := internet.Graph()

	v, err := resolveAS(*victim, func() (aspp.ASN, error) {
		return experiment.PickTier1ByDegree(g, 0)
	})
	if err != nil {
		return fmt.Errorf("victim: %w", err)
	}
	m, err := resolveAS(*attacker, func() (aspp.ASN, error) {
		return experiment.PickTier1ByDegree(g, 1)
	})
	if err != nil {
		return fmt.Errorf("attacker: %w", err)
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	var obs *aspp.Counters
	if *counters {
		obs = new(aspp.Counters)
	}
	im, err := internet.SimulateAttackObs(aspp.Scenario{
		Victim:            v,
		Attacker:          m,
		Prepend:           *lambda,
		KeepPrepend:       *keep,
		ViolateValleyFree: *violate,
	}, obs)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "topology: %d ASes, %d links (victim tier %d, attacker tier %d)\n",
		g.NumASes(), g.NumLinks(), g.Tier(v), g.Tier(m))
	fmt.Fprintf(out, "attack:   %v strips %v's prepends (λ=%d -> %d copies kept, violate=%v)\n",
		m, v, *lambda, *keep, *violate)
	fmt.Fprintf(out, "before:   %4d ASes (%5.1f%%) routed via the attacker\n",
		im.PollutedBefore, 100*im.Before())
	fmt.Fprintf(out, "after:    %4d ASes (%5.1f%%) route via the attacker\n",
		im.PollutedAfter, 100*im.After())
	newly := im.NewlyPolluted()
	fmt.Fprintf(out, "captured: %d ASes switched onto the bogus route\n", len(newly))

	for _, asn := range newly[:min(*show, len(newly))] {
		before, after := im.PathsAt(asn)
		fmt.Fprintf(out, "  %v:\n    before: %v\n    after:  %v\n", asn, before, after)
	}
	if len(newly) > *show {
		fmt.Fprintf(out, "  ... and %d more\n", len(newly)-*show)
	}

	if *updOut != "" {
		if err := writeUpdateStream(*updOut, g, im, *nMon); err != nil {
			return err
		}
		fmt.Fprintf(out, "update stream written to %s\n", *updOut)
	}
	if obs != nil {
		fmt.Fprintf(out, "counters: %s\n", obs.Snapshot())
	}
	return nil
}

// writeUpdateStream emits the monitors' view of the attack as a replayable
// update stream: first the steady-state announcements, then the changes
// the attack causes.
func writeUpdateStream(path string, g *topology.Graph, im *aspp.Impact, nMonitors int) (err error) {
	monitors := g.TopByDegree(nMonitors)
	prefix := netip.MustParsePrefix("10.0.0.0/16")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// The stream is written only once Close succeeds.
	defer func() { err = errors.Join(err, f.Close()) }()

	stream, err := collector.StreamTransition(nil, im.Baseline(), prefix, monitors, 0)
	if err != nil {
		return err
	}
	changes, err := collector.StreamTransition(im.Baseline(), im.Attacked(), prefix, monitors, uint64(len(stream)))
	if err != nil {
		return err
	}
	stream = append(stream, changes...)
	w := bufio.NewWriter(f)
	for _, u := range stream {
		if err := bgp.WriteUpdateText(w, u); err != nil {
			return err
		}
	}
	return w.Flush()
}

func resolveAS(spec string, auto func() (aspp.ASN, error)) (aspp.ASN, error) {
	if spec == "auto" {
		return auto()
	}
	return aspp.ParseASN(spec)
}
