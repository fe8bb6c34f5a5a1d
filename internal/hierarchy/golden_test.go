package hierarchy

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// Golden-trace regression gate for the hierarchy chaos harness, in the
// format of internal/netsim/chaos/testdata/trace_goldens.txt: one
// "<run> <sha256 of the trace lines joined by \n>" line per pinned run.
// TestHierarchyDeterminism catches run-to-run divergence; this catches
// commit-to-commit divergence.
//
// Regenerate (only when a trace change is intended and reviewed) with:
//
//	GOLDEN_UPDATE=1 go test -run TestHierarchyTraceGoldens ./internal/hierarchy/
const goldenPath = "testdata/trace_goldens.txt"

func TestHierarchyTraceGoldens(t *testing.T) {
	var b strings.Builder
	b.WriteString("# SHA-256 of each pinned hierarchy chaos trace (lines joined by \\n).\n")
	b.WriteString("# A clean run of each pinned scenario must stay byte-identical.\n")
	b.WriteString("# Regenerate (reviewed trace changes only): GOLDEN_UPDATE=1\n")
	for _, sc := range []ChaosScenario{ScenarioGlobalKill, ScenarioWANPartition} {
		res, err := RunChaos(ChaosOptions{Seed: 99, Scenario: sc})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		for _, v := range res.Violations {
			t.Errorf("%s: pinned run is not clean: %s", sc, v)
		}
		h := sha256.New()
		for _, line := range res.Trace {
			h.Write([]byte(line))
			h.Write([]byte{'\n'})
		}
		fmt.Fprintf(&b, "hierarchy/%s %s\n", sc, hex.EncodeToString(h.Sum(nil)))
	}
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if string(want) != b.String() {
		t.Errorf("hierarchy traces diverged from the pinned goldens\n--- pinned\n%s--- got\n%s", want, b.String())
	}
}
