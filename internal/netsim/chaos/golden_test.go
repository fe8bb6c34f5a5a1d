package chaos

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// Golden-trace regression gate: the chaos harnesses must keep producing
// *the same bytes* from commit to commit, not merely be internally
// deterministic. TestChaosDeterminism and
// friends catch run-to-run divergence; this test catches
// commit-to-commit divergence by pinning a SHA-256 of each
// representative trace in testdata/trace_goldens.txt.
//
// Regenerate (only when a trace change is intended and reviewed) with:
//
//	GOLDEN_UPDATE=1 go test -run TestTraceGoldens ./internal/netsim/chaos/
const goldenPath = "testdata/trace_goldens.txt"

// goldenRun is one pinned harness invocation. The set spans every
// scenario of all three harnesses, so every seeded code path through the
// switch (C-DP writes, rollovers, DP-DP probes, sharded failover load)
// and every invariant sweep is covered.
type goldenRun struct {
	name string
	run  func() ([]string, error)
}

func goldenRuns() []goldenRun {
	runs := []goldenRun{
		{"chaos/rollover-controller", pinned(Run, Options{Seed: 42, Scenario: MidRollover, Victim: KillController, CrashAt: 2, WarmDevice: true})},
		{"chaos/regwrite-switch-cold", pinned(Run, Options{Seed: 42, Scenario: MidRegisterWrite, Victim: CrashSwitch, CrashAt: 2, WarmDevice: false})},
		{"chaos/portinit-back-to-back", pinned(Run, Options{Seed: 7, Scenario: MidPortKeyInit, Victim: BackToBack, CrashAt: 3, WarmDevice: true})},
		{"fabric/flap", pinned(RunFabric, FabricOptions{Seed: 11, Scenario: FabricFlap})},
		{"fabric/skew", pinned(RunFabric, FabricOptions{Seed: 11, Scenario: FabricSkew})},
		{"group/n2-rolling-kill", pinned(RunGroup, GroupOptions{Seed: 5, Replicas: 2, Switches: 4, Scenario: GroupRollingKill})},
		{"group/rolling-kill", pinned(RunGroup, GroupOptions{Seed: 9, Replicas: 3, Switches: 4, Scenario: GroupRollingKill})},
		{"fabric/partition", pinned(RunFabric, FabricOptions{Seed: 11, Scenario: FabricPartition})},
		{"group/n2-split-brain", pinned(RunGroup, GroupOptions{Seed: 5, Replicas: 2, Switches: 4, Scenario: GroupSplitBrain})},
		{"group/store-outage", pinned(RunGroup, GroupOptions{Seed: 9, Replicas: 3, Switches: 4, Scenario: GroupStoreOutage})},
		{"group/acquire-race", pinned(RunGroup, GroupOptions{Seed: 9, Replicas: 3, Switches: 4, Scenario: GroupAcquireRace})},
	}
	// The TestChaosDeterminism grid (seed 42, CrashAt 2, warm); its
	// rollover/controller cell is chaos/rollover-controller above.
	for _, scenario := range []Scenario{MidRollover, MidRegisterWrite, MidPortKeyInit} {
		for _, victim := range []Victim{KillController, CrashSwitch, BackToBack} {
			if scenario == MidRollover && victim == KillController {
				continue
			}
			o := Options{Seed: 42, Scenario: scenario, Victim: victim, CrashAt: 2, WarmDevice: true}
			runs = append(runs, goldenRun{fmt.Sprintf("chaos/seed42/%s-%s", scenario, victim), pinned(Run, o)})
		}
	}
	return runs
}

// pinned adapts one harness invocation to a goldenRun.
func pinned[O any, R result](run func(O) (R, error), o O) func() ([]string, error) {
	return func() ([]string, error) {
		r, err := run(o)
		if err != nil {
			return nil, err
		}
		return r.rec().Trace, nil
	}
}

func traceHash(trace []string) string {
	h := sha256.New()
	for _, line := range trace {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func loadGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("open goldens (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed golden line: %q", line)
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTraceGoldens pins the chaos traces to their checked-in bytes: a
// clean run of a pinned scenario must reproduce them forever.
func TestTraceGoldens(t *testing.T) {
	runs := goldenRuns()
	got := make(map[string]string, len(runs))
	for _, gr := range runs {
		trace, err := gr.run()
		if err != nil {
			t.Fatalf("%s: %v", gr.name, err)
		}
		for _, line := range trace {
			if strings.Contains(line, "VIOLATION:") {
				t.Errorf("%s: pinned run is not clean: %s", gr.name, line)
			}
		}
		got[gr.name] = traceHash(trace)
	}

	if os.Getenv("GOLDEN_UPDATE") != "" {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# SHA-256 of each pinned chaos trace (lines joined by \\n).\n")
		b.WriteString("# A clean run of each pinned scenario must stay byte-identical.\n")
		b.WriteString("# Regenerate (reviewed trace changes only): GOLDEN_UPDATE=1\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(got), goldenPath)
		return
	}

	want := loadGoldens(t)
	for name, hash := range got {
		pinned, ok := want[name]
		if !ok {
			t.Errorf("%s: no pinned golden (regenerate with GOLDEN_UPDATE=1)", name)
			continue
		}
		if pinned != hash {
			t.Errorf("%s: trace diverged from pinned golden\n  pinned %s\n  got    %s", name, pinned, hash)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("golden %s has no matching run", name)
		}
	}
}
