package main

// Example runs the Figs. 5-6 usage survey on a 3,000-AS graph.
func Example() {
	main()
	// Output:
	// surveyed 5648 prefixes from 2792 origins; 34920 update messages from churn
	//
	// fraction of prefixes whose best route carries prepending (Fig. 5):
	//   tables:  mean 11.0%  (min 8.8%, max 13.2%)   paper: ~13%, up to 30%
	//   updates: mean 50.0%  — failovers expose the padded backups
	//   tier-1 monitors: mean 10.7%
	//
	// distribution of prepend counts over prepended routes (Fig. 6):
	//   λ   tables   updates
	//   2     37.4%     0.0%
	//   3     24.2%     0.0%
	//   4     17.6%    32.0%
	//   5     10.0%    32.6%
	//   8      1.9%     1.2%
	//   12     0.1%     0.9%
	//   20     0.0%     0.0%
	//
	// paper: 34% of prepended routes repeat twice, 22% three times, ~1% above ten.
}
