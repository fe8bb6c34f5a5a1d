package main

// Example runs the walk-through and pins what it prints.
func Example() {
	main()
	// Output:
	// clean fabric           via S2  32.9%  via S3  34.3%  via S4  32.8%  alerts 0
	// MitM, no protection    via S2   0.5%  via S3   0.1%  via S4  99.4%  alerts 0
	// MitM + P4Auth          via S2  49.8%  via S3  50.1%  via S4   0.2%  alerts 64
}
