package hierarchy_test

// The hierarchy's chaos runs, driven through chaos.RunHierarchy. This is
// an external test package: the product package hierarchy does not
// import the harness, its tests do.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"p4auth/internal/netsim/chaos"
)

var scenarios = []chaos.HierarchyScenario{chaos.HierarchyWANPartition, chaos.HierarchyGlobalKill}

// runClean executes one run and fails the test on a harness error or any
// invariant violation, printing the trace for replay.
func runClean(t *testing.T, o chaos.HierarchyOptions) *chaos.HierarchyResult {
	t.Helper()
	res, err := chaos.RunHierarchy(o)
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if t.Failed() {
		for _, line := range res.Trace {
			t.Log(line)
		}
		t.FailNow()
	}
	return res
}

// TestHierarchyChaos is the hierarchy-chaos gate: both scenarios over
// fixed seeds, zero invariant violations tolerated.
func TestHierarchyChaos(t *testing.T) {
	for _, sc := range scenarios {
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/%d", sc, seed), func(t *testing.T) {
				res := runClean(t, chaos.HierarchyOptions{Seed: seed, Scenario: sc})
				if res.Establishes == 0 || res.Grants == 0 {
					t.Fatalf("run did no broker work: %+v", res)
				}
				switch sc {
				case chaos.HierarchyWANPartition:
					if res.Deferred == 0 || res.Flushed == 0 {
						t.Fatalf("degraded window exercised nothing: deferred=%d flushed=%d",
							res.Deferred, res.Flushed)
					}
					if res.ForgedDropped == 0 || res.TornDropped == 0 {
						t.Fatalf("injection sweeps dropped nothing: forged=%d torn=%d",
							res.ForgedDropped, res.TornDropped)
					}
				case chaos.HierarchyGlobalKill:
					if res.Refusals == 0 {
						t.Fatal("dark window refused nothing")
					}
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
	for _, sc := range scenarios {
		t.Run(string(sc), func(t *testing.T) {
			res := runClean(t, chaos.HierarchyOptions{Seed: 7, Pods: 8, Scenario: sc})
			if sc == chaos.HierarchyGlobalKill && res.ReconvergeTime <= 250*time.Millisecond {
				t.Errorf("global-kill re-converged in %v; the serial re-roll of 112 links should exceed 250ms",
					res.ReconvergeTime)
			}
		})
	}
}

// TestHierarchyDeterminism: equal options produce bit-identical traces
// within one process, so no state leaks from one run into the next.
func TestHierarchyDeterminism(t *testing.T) {
	for _, sc := range scenarios {
		a := runClean(t, chaos.HierarchyOptions{Seed: 99, Scenario: sc})
		b := runClean(t, chaos.HierarchyOptions{Seed: 99, Scenario: sc})
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			for i := range a.Trace {
				if i >= len(b.Trace) || a.Trace[i] != b.Trace[i] {
					t.Fatalf("%s: traces diverge at line %d:\n  a: %s\n  b: %s",
						sc, i, a.Trace[i], b.Trace[i])
				}
			}
			t.Fatalf("%s: trace lengths differ: %d vs %d", sc, len(a.Trace), len(b.Trace))
		}
		if a.Establishes != b.Establishes {
			t.Fatalf("%s: results diverge across identical runs", sc)
		}
	}
}

// TestHierarchyTraceGoldens checks the hierarchy rows of the chaos
// package's one golden file, "hierarchy/<scenario> <sha256 of the trace
// lines, each ended by \n>", from this package too: a change to the
// hierarchy that moves its traces fails here. The chaos package's
// TestTraceGoldens records the file (GOLDEN_UPDATE=1).
func TestHierarchyTraceGoldens(t *testing.T) {
	b, err := os.ReadFile("../netsim/chaos/testdata/trace_goldens.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(f[0], "hierarchy/") {
			want[f[0]] = f[1]
		}
	}
	if len(want) != len(scenarios) {
		t.Fatalf("golden file pins %d hierarchy traces, want %d", len(want), len(scenarios))
	}
	for _, sc := range scenarios {
		res := runClean(t, chaos.HierarchyOptions{Seed: 99, Scenario: sc})
		name := "hierarchy/" + string(sc)
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(res.Trace, "\n")+"\n")))
		if got != want[name] {
			t.Errorf("%s diverged from the pinned golden\n  pinned %s\n  got    %s", name, want[name], got)
		}
	}
}
