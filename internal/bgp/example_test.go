package bgp_test

import (
	"fmt"
	"log"

	"aspp/internal/bgp"
)

// ExamplePath_StripOriginPrepend shows the attacker's route rewrite.
func ExamplePath_StripOriginPrepend() {
	route, err := bgp.ParsePath("3356 32934 32934 32934 32934 32934")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(route.StripOriginPrepend(1))
	// Output:
	// 3356 32934
}
