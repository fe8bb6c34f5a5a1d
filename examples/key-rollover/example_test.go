package main

// Example runs the walk-through and pins what it prints.
func Example() {
	main()
	// Output:
	// fleet key init: 17 messages, serial 4.10944ms
	// new link s1:2<->s3:1 keyed: 5 messages, RTT 1.19752ms
	//   both data planes hold the same port key: true (controller never sees it)
	// rollover 1: 12 messages, serial 1.96848ms, s1 local-key version now 3
	// rollover 2: 12 messages, serial 1.96848ms, s1 local-key version now 4
	// rollover 3: 12 messages, serial 1.96848ms, s1 local-key version now 5
	//
	// keys rolled three times; every switch kept accepting authenticated
	// writes because messages are tagged with the key version they were
	// signed under (consistent updates, §VI-C).
}
