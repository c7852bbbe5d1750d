package core_test

import (
	"fmt"
	"log"
	"strings"

	"aspp/internal/core"
	"aspp/internal/topology"
)

// ExampleSimulate builds a hand-written topology and shows the attacker
// transformation on a single path.
func ExampleSimulate() {
	g, err := topology.ReadSerial2(strings.NewReader(`
1|100|-1
2|1|-1
`))
	if err != nil {
		log.Fatal(err)
	}
	impact, err := core.Simulate(g, core.Scenario{
		Victim:   100,
		Attacker: 1,
		Prepend:  3,
	})
	if err != nil {
		log.Fatal(err)
	}
	before, after := impact.PathsAt(2)
	fmt.Printf("before: %v\n", before)
	fmt.Printf("after:  %v\n", after)
	// Output:
	// before: 1 100 100 100
	// after:  1 100
}
