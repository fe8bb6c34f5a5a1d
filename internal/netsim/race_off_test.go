//go:build !race

package netsim_test

// raceEnabled reports whether the race detector is active. Alloc-count
// guards are skipped under -race: instrumentation changes allocation
// counts (sync.Pool drops entries at random).
const raceEnabled = false
