package main

// Example runs the §IV-A pipeline on a 1,500-AS graph and scores each
// inference against the generator's ground truth.
func Example() {
	main()
	// Output:
	// collected 10390 AS paths from 52 monitors over 200 origins
	//
	// Gao                      914 links, 90.5% exact (p2c 583, p2p 244; 2 flipped, 85 misclassified)
	// Gao + tier-1 seeds       914 links, 90.8% exact (p2c 583, p2p 247; 2 flipped, 82 misclassified)
	// consensus (paper IV-A)   914 links, 90.5% exact (p2c 583, p2p 244; 2 flipped, 85 misclassified)
	//
	// the inferred relationships can drive the detector's hint rules
	// in place of ground truth, as a real deployment must.
}
