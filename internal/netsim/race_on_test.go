//go:build race

package netsim_test

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
