package aspp_test

import (
	"fmt"
	"log"

	"aspp"
)

// Example simulates one interception attack on a small deterministic
// Internet and reports the pollution it causes.
func Example() {
	internet, err := aspp.NewInternet(aspp.WithSize(500), aspp.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	t1 := internet.Tier1s()
	impact, err := internet.SimulateAttack(aspp.Scenario{
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

// ExampleLoadInternetFromString builds a hand-written topology and shows
// the attacker transformation on a single path.
func ExampleLoadInternetFromString() {
	internet, err := aspp.LoadInternetFromString(`
1|100|-1
2|1|-1
`)
	if err != nil {
		log.Fatal(err)
	}
	impact, err := internet.SimulateAttack(aspp.Scenario{
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

// ExamplePath_StripOriginPrepend shows the attacker's route rewrite.
func ExamplePath_StripOriginPrepend() {
	route, err := aspp.ParsePath("3356 32934 32934 32934 32934 32934")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(route.StripOriginPrepend(1))
	// Output:
	// 3356 32934
}
