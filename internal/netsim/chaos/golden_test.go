package chaos

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// Golden-trace regression gate: the chaos harnesses must keep producing
// *the same bytes* from commit to commit, not merely be internally
// deterministic. testdata/trace_goldens.txt pins a SHA-256 of each pinned
// run's trace; a run that reproduces its hash has also replayed the bytes
// of the run that recorded it. The Test*Determinism tests replay the
// seed-42 rows twice in one process.
//
// Regenerate (only when a trace change is intended and reviewed) with:
//
//	GOLDEN_UPDATE=1 go test -run TestTraceGoldens ./internal/netsim/chaos/
const goldenPath = "testdata/trace_goldens.txt"

// pinnedRun is one pinned harness invocation.
type pinnedRun struct {
	name string
	run  func() ([]string, error)
}

// pinnedRuns spans every scenario of all four harnesses, so every seeded
// code path through the switch (C-DP writes, rollovers, DP-DP probes,
// sharded failover load, brokered cross-pod keys) and every invariant
// sweep is covered.
func pinnedRuns() []pinnedRun {
	runs := []pinnedRun{
		{"chaos/regwrite-switch-cold", pin(Run, Options{Seed: 42, Scenario: MidRegisterWrite, Victim: CrashSwitch, CrashAt: 2, WarmDevice: false})},
		{"chaos/portinit-back-to-back", pin(Run, Options{Seed: 7, Scenario: MidPortKeyInit, Victim: BackToBack, CrashAt: 3, WarmDevice: true})},
		{"group/n2-rolling-kill", pin(RunGroup, GroupOptions{Seed: 5, Replicas: 2, Switches: 4, Scenario: GroupRollingKill})},
		{"group/n2-split-brain", pin(RunGroup, GroupOptions{Seed: 5, Replicas: 2, Switches: 4, Scenario: GroupSplitBrain})},
		{"group/rolling-kill", pin(RunGroup, GroupOptions{Seed: 9, Replicas: 3, Switches: 4, Scenario: GroupRollingKill})},
		{"group/store-outage", pin(RunGroup, GroupOptions{Seed: 9, Replicas: 3, Switches: 4, Scenario: GroupStoreOutage})},
		{"group/acquire-race", pin(RunGroup, GroupOptions{Seed: 9, Replicas: 3, Switches: 4, Scenario: GroupAcquireRace})},
		{"group/seed42/n2-rolling-kill", pin(RunGroup, GroupOptions{Seed: 42, Replicas: 2, Scenario: GroupRollingKill})},
		{"group/seed42/n2-split-brain", pin(RunGroup, GroupOptions{Seed: 42, Replicas: 2, Scenario: GroupSplitBrain})},
	}
	for _, sc := range scenarios {
		for _, v := range victims {
			o := Options{Seed: 42, Scenario: sc.name, Victim: v.name, CrashAt: 2, WarmDevice: true}
			name := fmt.Sprintf("chaos/seed42/%s-%s", sc.name, v.name)
			if sc.name == MidRollover && v.name == KillController {
				name = "chaos/rollover-controller"
			}
			runs = append(runs, pinnedRun{name, pin(Run, o)})
		}
	}
	for _, sc := range fabricScenarios {
		runs = append(runs,
			pinnedRun{"fabric/" + string(sc.name), pin(RunFabric, FabricOptions{Seed: 11, Scenario: sc.name})},
			pinnedRun{"fabric/seed42/" + string(sc.name), pin(RunFabric, FabricOptions{Seed: 42, Scenario: sc.name})})
	}
	for _, sc := range groupScenarios {
		runs = append(runs, pinnedRun{"group/seed42/n4-" + string(sc.name),
			pin(RunGroup, GroupOptions{Seed: 42, Replicas: 4, Scenario: sc.name})})
	}
	for _, sc := range hierarchyScenarios {
		runs = append(runs, pinnedRun{"hierarchy/" + string(sc.name),
			pin(RunHierarchy, HierarchyOptions{Seed: 99, Scenario: sc.name})})
	}
	return runs
}

// pin adapts one harness invocation to a pinnedRun.
func pin[O any, R result](run func(O) (R, error), o O) func() ([]string, error) {
	return func() ([]string, error) {
		r, err := run(o)
		if err != nil {
			return nil, err
		}
		return r.rec().Trace, nil
	}
}

// traceHash is the SHA-256 of the trace lines, each ended by \n.
func traceHash(trace []string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(trace, "\n")+"\n")))
}

// TestTraceGoldens pins the chaos traces to their checked-in bytes: a
// clean run of a pinned scenario must reproduce them forever. Under
// GOLDEN_UPDATE each run is executed twice, and a trace that does not
// replay is not recorded.
func TestTraceGoldens(t *testing.T) {
	update := os.Getenv("GOLDEN_UPDATE") != ""
	want := map[string]string{}
	if !update {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("read goldens (run with GOLDEN_UPDATE=1 to create): %v", err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
				want[f[0]] = f[1]
			}
		}
	}
	runs, got := pinnedRuns(), map[string]string{}
	for _, pr := range runs {
		t.Run(pr.name, func(t *testing.T) {
			trace, err := pr.run()
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range trace {
				if strings.Contains(line, "VIOLATION:") {
					t.Errorf("pinned run is not clean: %s", line)
				}
			}
			got[pr.name] = traceHash(trace)
			if update {
				if again, err := pr.run(); err != nil || traceHash(again) != got[pr.name] {
					t.Errorf("trace does not replay (err %v)", err)
				}
			} else if want[pr.name] != got[pr.name] {
				t.Errorf("trace diverged from pinned golden\n  pinned %q\n  got    %s", want[pr.name], got[pr.name])
			}
		})
	}
	if !update {
		if len(want) != len(runs) {
			t.Errorf("%s pins %d traces for %d runs", goldenPath, len(want), len(runs))
		}
		return
	}
	if t.Failed() || len(got) != len(runs) {
		t.Fatalf("GOLDEN_UPDATE recorded %d of %d pinned runs clean; nothing written", len(got), len(runs))
	}
	sorted := make([]string, 0, len(got))
	for n := range got {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	var b strings.Builder
	b.WriteString("# SHA-256 of each pinned chaos trace (lines joined by \\n).\n")
	b.WriteString("# A clean run of each pinned scenario must stay byte-identical.\n")
	b.WriteString("# Regenerate (reviewed trace changes only): GOLDEN_UPDATE=1\n")
	for _, n := range sorted {
		fmt.Fprintf(&b, "%s %s\n", n, got[n])
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d goldens to %s", len(got), goldenPath)
}
