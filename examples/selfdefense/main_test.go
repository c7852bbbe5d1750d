package main

// Example compares the placement strategies for one multihomed edge
// network and its two reactive responses.
func Example() {
	main()
	// Output:
	// defending AS16897 (tier 2, 3 providers) with a budget of 10 monitors
	//
	// monitor placement strategy comparison (fraction of attacks detected):
	//   top-degree    70.0%   monitors: [AS13043 AS12486 AS22076 AS57206 AS5601 AS14156 AS63024 AS58906 AS42109 AS316]
	//   random        30.0%   monitors: [AS40230 AS45725 AS15073 AS9569 AS25085 AS23407 AS48361 AS6277 AS18010 AS57923]
	//   victim-cone   70.0%   monitors: [AS15206 AS2210 AS11396 AS20031 AS23886 AS26288 AS28423 AS30032 AS53111 AS56976]
	//   greedy        78.3%   monitors: [AS43956 AS4656 AS49130 AS55775 AS4261 AS216 AS332 AS2366 AS4935 AS9504]
	//
	// reacting to an interception by AS2210 (λ=4):
	//   unprepend  pollution  12.2% ->   1.7%   reachable ASes 1499 -> 1499
	//   withhold   pollution  12.2% ->  12.2%   reachable ASes 1499 -> 1499
}
