// Self-defense: the paper's future-work agenda (§VIII) — how should a
// prefix owner place a limited monitoring budget to catch ASPP
// interceptions against itself, and what should it do once an attack is
// detected?
//
// The owner has an advantage third parties lack: it knows exactly how
// many prepends it sent to each neighbor, so a single polluted vantage
// point suffices for detection (no cross-monitor witness needed). Monitor
// placement then becomes max-coverage over likely attacks' pollution
// sets, which greedy selection approximates.
package main

import (
	"fmt"
	"log"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/defense"
	"aspp/internal/topology"
)

func main() {
	gen := topology.DefaultGenConfig(1500)
	gen.Seed = 21
	g, err := topology.Generate(gen)
	if err != nil {
		log.Fatal(err)
	}

	// The defender: a multihomed edge network.
	var victim bgp.ASN
	for _, asn := range g.ASNs() {
		if g.IsStub(asn) && len(g.Providers(asn)) >= 2 {
			victim = asn
			break
		}
	}
	fmt.Printf("defending %v (tier %d, %d providers) with a budget of 10 monitors\n\n",
		victim, g.Tier(victim), len(g.Providers(victim)))

	cfg := defense.DefaultConfig(victim)
	cfg.Budget = 10
	outcomes, err := defense.Compare(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("monitor placement strategy comparison (fraction of attacks detected):")
	for _, o := range outcomes {
		fmt.Printf("  %-12s %5.1f%%   monitors: %v\n", o.Strategy, 100*o.DetectedFrac, o.Monitors)
	}

	// Once detected: compare the two reactive responses against one
	// concrete attacker.
	t1 := g.Tier1s()
	sc := core.Scenario{Victim: victim, Attacker: t1[0], Prepend: 4}
	fmt.Printf("\nreacting to an interception by %v (λ=4):\n", t1[0])
	for _, m := range []struct {
		name string
		mit  defense.Mitigation
	}{
		{"unprepend", defense.MitigateUnprepend},
		{"withhold", defense.MitigateWithhold},
	} {
		out, err := defense.Mitigate(g, sc, m.mit)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s pollution %5.1f%% -> %5.1f%%   reachable ASes %d -> %d\n",
			m.name, 100*out.DuringAttack, 100*out.AfterResponse,
			out.ReachableDuring, out.ReachableAfter)
	}
}
