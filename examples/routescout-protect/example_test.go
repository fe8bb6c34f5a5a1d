package main

// Example runs the walk-through and pins what it prints.
func Example() {
	main()
	// Output:
	// trace: 10431 packets, 942 flows, 10.4 MB
	//
	// no adversary               path1  77.6%  path2  22.4%  split=192/256  tampered=0  alerts=0
	// adversary, no protection   path1  31.1%  path2  68.9%  split= 33/256  tampered=0  alerts=0
	// adversary + P4Auth         path1  77.6%  path2  22.4%  split=192/256  tampered=20  alerts=20
	//
	// path1 is the genuinely faster path (2 ms vs 6 ms); the adversary makes
	// it look slow. With P4Auth the controller keeps the converged split and alerts.
}
