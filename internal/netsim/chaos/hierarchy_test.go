package chaos

import (
	"reflect"
	"testing"

	"p4auth/internal/hierarchy"
)

// TestHierarchyFailingTraceDeterministic: a run that fails must fail the
// same way every time, or its trace is useless for debugging. Two
// counters with no audit event behind them force two reconciliation
// violations; their order is the kernel table's, on every run.
func TestHierarchyFailingTraceDeterministic(t *testing.T) {
	run := func() []string {
		hier, err := hierarchy.Build(hierarchy.Config{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		h := newHierarchyHarness(3, hier)
		hier.Ob.Metrics.Counter("hier.deferred_rollovers").Inc()
		hier.Ob.Metrics.Counter("hier.degraded_enters").Inc()
		h.finalChecks()
		return h.Trace
	}
	first := run()
	if n := len(first); n != 3 {
		t.Fatalf("want two VIOLATION lines and the summary, got %d lines: %q", n, first)
	}
	for i := 0; i < 8; i++ {
		if again := run(); !reflect.DeepEqual(first, again) {
			t.Fatalf("failing traces differ between identical runs:\n  %q\n  %q", first, again)
		}
	}
}
