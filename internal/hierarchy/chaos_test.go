package hierarchy

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"p4auth/internal/netsim/chaos"
)

// TestHierarchyChaos is the hierarchy-chaos gate: both scenarios over
// fixed seeds, zero invariant violations tolerated.
func TestHierarchyChaos(t *testing.T) {
	for _, sc := range []ChaosScenario{ScenarioWANPartition, ScenarioGlobalKill} {
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/%d", sc, seed), func(t *testing.T) {
				res, err := RunChaos(ChaosOptions{Seed: seed, Scenario: sc})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, v := range res.Violations {
					t.Errorf("seed %d violation: %s", seed, v)
				}
				if t.Failed() {
					for _, line := range res.Trace {
						t.Log(line)
					}
				}
				if res.Establishes == 0 || res.Grants == 0 {
					t.Fatalf("seed %d: run did no broker work: %+v", seed, res)
				}
				if sc == ScenarioWANPartition {
					if res.Deferred == 0 || res.Flushed == 0 {
						t.Fatalf("seed %d: degraded window exercised nothing: deferred=%d flushed=%d",
							seed, res.Deferred, res.Flushed)
					}
					if res.ForgedDropped == 0 || res.TornDropped == 0 {
						t.Fatalf("seed %d: injection sweeps dropped nothing: forged=%d torn=%d",
							seed, res.ForgedDropped, res.TornDropped)
					}
				}
				if sc == ScenarioGlobalKill && res.Refusals == 0 {
					t.Fatalf("seed %d: dark window refused nothing", seed)
				}
			})
		}
	}
}

// TestHierarchyChaosPods8 runs both scenarios clean at Pods=8. Global
// kill re-rolls all 112 cross links serially after the election (6ms
// each, as at Pods=4), which a fixed 250ms budget cannot hold; the budget
// scales with the cross-link count instead.
func TestHierarchyChaosPods8(t *testing.T) {
	for _, sc := range []ChaosScenario{ScenarioWANPartition, ScenarioGlobalKill} {
		t.Run(string(sc), func(t *testing.T) {
			res, err := RunChaos(ChaosOptions{Seed: 7, Pods: 8, Scenario: sc})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if sc == ScenarioGlobalKill && res.ReconvergeTime <= 250*time.Millisecond {
				t.Errorf("global-kill re-converged in %v; the serial re-roll of 112 links should exceed 250ms",
					res.ReconvergeTime)
			}
		})
	}
}

// TestHierarchyDeterminism: equal options produce bit-identical traces.
func TestHierarchyDeterminism(t *testing.T) {
	for _, sc := range []ChaosScenario{ScenarioWANPartition, ScenarioGlobalKill} {
		a, err := RunChaos(ChaosOptions{Seed: 99, Scenario: sc})
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunChaos(ChaosOptions{Seed: 99, Scenario: sc})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			for i := range a.Trace {
				if i >= len(b.Trace) || a.Trace[i] != b.Trace[i] {
					t.Fatalf("%s: traces diverge at line %d:\n  a: %s\n  b: %s",
						sc, i, a.Trace[i], b.Trace[i])
				}
			}
			t.Fatalf("%s: trace lengths differ: %d vs %d", sc, len(a.Trace), len(b.Trace))
		}
		if !reflect.DeepEqual(a.Violations, b.Violations) || a.Establishes != b.Establishes {
			t.Fatalf("%s: results diverge across identical runs", sc)
		}
	}
}

// TestHierarchyFailingTraceDeterministic: a run that fails must fail the
// same way every time, or its trace is useless for debugging. Two
// counters with no audit event behind them force two reconciliation
// violations; their order is the kernel table's, on every run.
func TestHierarchyFailingTraceDeterministic(t *testing.T) {
	run := func() []string {
		h, err := Build(Config{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res := &ChaosResult{Recorder: chaos.NewRecorder(h.Sim)}
		c := &chaosHarness{Recorder: &res.Recorder, res: res, h: h, shadow: map[string][]uint64{}}
		h.Ob.Metrics.Counter("hier.deferred_rollovers").Inc()
		h.Ob.Metrics.Counter("hier.degraded_enters").Inc()
		c.finalChecks()
		return res.Trace
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
