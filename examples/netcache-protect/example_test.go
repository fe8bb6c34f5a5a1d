package main

// Example runs the walk-through and pins what it prints.
func Example() {
	main()
	// Output:
	// NetCache on the P4Auth substrate: Zipf queries over 64 keys, 8 cache slots.
	//
	// no adversary         hit rate  64.0%  skipped epochs 0  alerts 0
	// with adversary       hit rate   2.7%  skipped epochs 0  alerts 0
	// adversary + P4Auth   hit rate  64.0%  skipped epochs 1  alerts 1
	//
	// The adversary deflates the sketch counters the controller reads, so hot
	// keys look cold and get evicted. P4Auth detects the first tampered read,
	// the epoch is skipped, and the previous cache contents keep serving.
}
