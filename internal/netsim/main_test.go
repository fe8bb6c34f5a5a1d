package netsim

import (
	"os"
	"testing"
)

// Every test of this package runs with recycled payloads poisoned: a tap,
// a handler or a test helper that keeps a delivered slice past its return
// reads 0xA5 instead of passing by luck.
func TestMain(m *testing.M) {
	PoisonRecycledForTest(true)
	os.Exit(m.Run())
}
