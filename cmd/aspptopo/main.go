// Command aspptopo generates, inspects and exports AS-level topologies,
// and reports relationship-inference accuracy (the paper's §IV-A
// preprocessing) against the generator's ground truth.
//
// Usage:
//
//	aspptopo -n 4000 -seed 2 -stats
//	aspptopo -n 4000 -out rels.txt
//	aspptopo -n 2000 -infer
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"aspp/internal/measure"
	"aspp/internal/relinfer"
	"aspp/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aspptopo:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aspptopo", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 4000, "number of ASes")
		seed     = fs.Int64("seed", 1, "random seed")
		preset   = fs.String("preset", "", "calibrated generator preset: 'internet80k' (n=80000, wide ASN pool, CAIDA-like shape); -n overrides its size")
		topoFile = fs.String("topo", "", "load a serial-2 file instead of generating")
		outFile  = fs.String("out", "", "write the topology (serial-2) to this file")
		showStat = fs.Bool("stats", true, "print structural statistics")
		digest   = fs.Bool("digest", false, "print the structure digest (FNV-1a over ASNs and links; pins the canonical internet80k fixture)")
		infer    = fs.Bool("infer", false, "run relationship inference and score it")
		origins  = fs.Int("infer-origins", 200, "origin sample size for inference")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := topology.DefaultGenConfig(*n)
	if *preset != "" && *topoFile == "" {
		if *preset != "internet80k" {
			return fmt.Errorf("-preset: unknown preset %q (want 'internet80k')", *preset)
		}
		size := topology.Internet80kASes
		if flagSet(fs, "n") {
			size = *n
		}
		cfg = topology.InternetGenConfig(size)
	}
	cfg.Seed = *seed
	g, err := topology.Open(*topoFile, cfg)
	if err != nil {
		return err
	}

	if *digest {
		fmt.Fprintf(out, "digest:          %#016x\n", topology.Digest(g))
	}

	if *showStat {
		ps, err := measure.MeasurePaths(g, relinfer.SampleOrigins(g, 30))
		if err != nil {
			// Path stats are part of the requested report; a propagation
			// failure is a real defect, not a line to drop silently.
			return fmt.Errorf("measuring paths: %w", err)
		}
		fmt.Fprintf(out, "paths:           mean %.1f hops, max %d, reachable %.1f%%\n",
			ps.MeanHops, ps.MaxHops, 100*ps.ReachableFrac)
		s := topology.Stats(g)
		fmt.Fprintf(out, "ASes:            %d\n", s.ASes)
		fmt.Fprintf(out, "links:           %d (%d p2c, %d p2p)\n", s.Links, s.P2CLinks, s.P2PLinks)
		fmt.Fprintf(out, "tier-1 / transit / stubs: %d / %d / %d (max tier %d)\n",
			s.Tier1, s.Transit, s.Stubs, s.MaxTier)
		fmt.Fprintf(out, "degree:          mean %.1f, p90 %d, p99 %d, max %d\n",
			s.MeanDegree, s.DegreeP90, s.DegreeP99, s.MaxDegree)
		fmt.Fprintf(out, "multihomed:      %.0f%% of non-tier-1 ASes (mean %.2f providers)\n",
			100*s.MultiHomedFrac, s.MeanProvidersPerNonT1)
		fmt.Fprintf(out, "peered stubs:    %.0f%%\n", 100*s.PeeredStubFrac)
		fmt.Fprintf(out, "leaves:          %d (%.1f%%), %d single-homed\n",
			s.Leaves, 100*float64(s.Leaves)/float64(s.ASes), s.SingleHomedLeaves)
	}

	if *infer {
		_, acc, err := relinfer.InferRelationships(g, *origins, 30, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "inference (consensus of Gao and tier-1-seeded Gao):\n")
		fmt.Fprintf(out, "  classified links:  %d\n", acc.Links)
		fmt.Fprintf(out, "  exact:             %.1f%% (%d p2c, %d p2p)\n",
			100*acc.Overall(), acc.CorrectP2C, acc.CorrectP2P)
		fmt.Fprintf(out, "  wrong direction:   %d\n", acc.WrongDirection)
		fmt.Fprintf(out, "  misclassified:     %d\n", acc.Misclassified)
	}

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		// The file is written only once Close succeeds.
		if err := errors.Join(topology.WriteSerial2(f, g), f.Close()); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *outFile)
	}
	return nil
}

// flagSet reports whether the named flag was explicitly passed.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
