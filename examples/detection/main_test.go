package main

// Example runs the Fig. 3 walkthrough: the steady state and the
// legitimate re-padding raise nothing, and the stripped route raises one
// High alarm naming AS6.
func Example() {
	main()
	// Output:
	// --- steady state: V pads A's route (λ=3), C's route less (λ=2) ---
	// t=1 monitor AS5 sees [5 1 100 100 100]
	// t=2 monitor AS2 sees [2 6 1 100 100 100]
	// t=3 monitor AS4 sees [4 3 100 100]
	// --- legitimate TE: V lowers C's padding to λ=1; no alarm may fire ---
	// t=4 monitor AS4 sees [4 3 100]
	// --- attack: M strips two of V's prepends toward B ---
	// t=5 monitor AS2 sees [2 6 1 100]
	//     ALARM[high] AS6 removed 2 prepended ASN(s) (monitor AS2, witness AS5)
	// --- done: only the attack raised an alarm, naming AS6 ---
}
