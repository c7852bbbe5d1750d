// Detection walkthrough: builds the paper's Figure 3 scenario — a victim
// applying legitimate per-neighbor prepending, an attacker stripping
// prepends — and shows the collaborative detector separating the two:
// the legitimate traffic engineering raises no alarm, the attack does,
// and the alarm names the attacker.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"strings"

	"aspp/internal/bgp"
	"aspp/internal/detect"
	"aspp/internal/topology"
)

func main() {
	// The Fig. 3 topology, as a relationship file:
	//
	//	V(100) announces to providers A(1) and C(3);
	//	E(5) and M(6) are A's providers; B(2) is M's provider;
	//	D(4) is C's provider. Monitors peer with B, D and E.
	const rels = `
1|100|-1
3|100|-1
5|1|-1
6|1|-1
2|6|-1
4|3|-1
`
	g, err := topology.ReadSerial2(strings.NewReader(rels))
	if err != nil {
		log.Fatal(err)
	}

	detector := detect.NewDetector([]bgp.ASN{2, 4, 5}, g)
	prefix := netip.MustParsePrefix("10.10.0.0/16")
	observe := func(tm uint64, monitor bgp.ASN, path string) {
		p, err := bgp.ParsePath(path)
		if err != nil {
			log.Fatal(err)
		}
		alarms := detector.Observe(bgp.Update{
			Time: tm, Monitor: monitor, Type: bgp.Announce, Prefix: prefix, Path: p,
		})
		fmt.Printf("t=%d monitor %v sees [%v]\n", tm, monitor, p)
		for _, a := range alarms {
			fmt.Println("   ", a)
		}
	}

	fmt.Println("--- steady state: V pads A's route (λ=3), C's route less (λ=2) ---")
	observe(1, 5, "5 1 100 100 100")
	observe(2, 2, "2 6 1 100 100 100")
	observe(3, 4, "4 3 100 100")

	fmt.Println("--- legitimate TE: V lowers C's padding to λ=1; no alarm may fire ---")
	observe(4, 4, "4 3 100")

	fmt.Println("--- attack: M strips two of V's prepends toward B ---")
	observe(5, 2, "2 6 1 100")

	fmt.Println("--- done: only the attack raised an alarm, naming AS6 ---")
}
