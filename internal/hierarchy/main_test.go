package hierarchy

import (
	"os"
	"testing"

	"p4auth/internal/netsim"
)

// Every test of this package, the pinned traces and matrices included,
// runs with recycled netsim payloads poisoned: a handler or tap that keeps
// a delivered slice reads 0xA5 and moves a golden instead of silently
// replaying another packet's bytes.
func TestMain(m *testing.M) {
	netsim.PoisonRecycledForTest(true)
	os.Exit(m.Run())
}
