package main

// Example runs the walk-through and pins what it prints.
func Example() {
	main()
	// Output:
	// switch compiled: p4auth_shell
	// local key established: 4 messages, 108 bytes, RTT 770.64µs
	// read path_latency[3] = 1500 (RCT 385.26µs)
	// tampered read detected: controller: message failed authentication: response digest mismatch on edge1
	// alerts recorded: 1
}
