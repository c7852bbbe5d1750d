// Relationship-inference pipeline: reproduces the paper's §IV-A topology
// preprocessing. It harvests the AS paths a set of route monitors would
// export, infers AS business relationships with Gao's algorithm and a
// tier-1-seeded variant, combines them by consensus, and — because the
// topology generator knows the ground truth — scores each stage.
package main

import (
	"fmt"
	"log"

	"aspp/internal/measure"
	"aspp/internal/relinfer"
	"aspp/internal/topology"
)

func main() {
	cfg := topology.DefaultGenConfig(1500)
	cfg.Seed = 11
	g, err := topology.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Harvest monitor-exported paths: 30 top-degree + 15 random vantage
	// points observing routes toward 200 sampled origins.
	monitors := measure.DefaultMonitors(g, 30, 15, 1)
	origins := relinfer.SampleOrigins(g, 200)
	paths, err := relinfer.CollectPaths(g, origins, monitors, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d AS paths from %d monitors over %d origins\n\n",
		len(paths), len(monitors), len(origins))

	report := func(name string, in *relinfer.Inferred) {
		acc := relinfer.Score(in, g)
		fmt.Printf("%-22s %5d links, %.1f%% exact (p2c %d, p2p %d; %d flipped, %d misclassified)\n",
			name, acc.Links, 100*acc.Overall(), acc.CorrectP2C, acc.CorrectP2P,
			acc.WrongDirection, acc.Misclassified)
	}

	plain, err := relinfer.Gao(paths, relinfer.GaoConfig{})
	if err != nil {
		log.Fatal(err)
	}
	report("Gao", plain)

	seeded, err := relinfer.Tier1Seeded(paths, g.Tier1s())
	if err != nil {
		log.Fatal(err)
	}
	report("Gao + tier-1 seeds", seeded)

	consensus, err := relinfer.Consensus(paths, plain, seeded)
	if err != nil {
		log.Fatal(err)
	}
	report("consensus (paper IV-A)", consensus)

	fmt.Println("\nthe inferred relationships can drive the detector's hint rules")
	fmt.Println("in place of ground truth, as a real deployment must.")
}
