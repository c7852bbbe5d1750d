package aspp_test

import (
	"fmt"
	"log"

	"aspp/internal/core"
	"aspp/internal/topology"
)

// Example simulates one interception attack on a small deterministic
// Internet and reports the pollution it causes.
func Example() {
	g, err := topology.Generate(topology.DefaultGenConfig(500))
	if err != nil {
		log.Fatal(err)
	}
	t1 := g.Tier1s()
	impact, err := core.Simulate(g, core.Scenario{
		Victim:   t1[0],
		Attacker: t1[1],
		Prepend:  3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the attack polluted more ASes than the natural transit share: %v\n",
		impact.After() > impact.Before())
	// Output:
	// the attack polluted more ASes than the natural transit share: true
}
