package fleet

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

const matrixGoldenPath = "testdata/matrix_k4.golden"

// TestMatrixChaos is the matrix-chaos gate: the full app × fault ×
// protection matrix at k=4 with the default seed, from the same pass as
// TestCellsGolden. Invariants checked on every cell, then the canonical
// trace is compared bit-for-bit against the checked-in golden
// (regenerate with GOLDEN_UPDATE=1 after an intentional semantic change).
func TestMatrixChaos(t *testing.T) {
	var cells []Cell
	for _, c := range defaultMatrix(t) {
		cells = append(cells, c.Cell)
	}
	survived, total := 0, len(cells)
	for _, c := range cells {
		if c.Survived {
			survived++
		}
		attacked := c.Fault == FaultAttack || c.Fault == FaultComposed
		if c.Protected {
			if c.ForgedApplied != 0 {
				t.Errorf("%s/%s protected: %d forged ops applied, want 0", c.App, c.Fault, c.ForgedApplied)
			}
			if !c.Survived {
				t.Errorf("%s/%s protected: did not survive (score=%.2f note=%q)", c.App, c.Fault, c.Score, c.Note)
			}
			if attacked && c.Detected == 0 {
				t.Errorf("%s/%s protected: attack went undetected", c.App, c.Fault)
			}
		} else if attacked {
			if c.ForgedApplied == 0 {
				t.Errorf("%s/%s unprotected: attack applied nothing", c.App, c.Fault)
			}
			if c.Survived {
				t.Errorf("%s/%s unprotected: survived the attack", c.App, c.Fault)
			}
		}
	}
	if total != 74 {
		t.Fatalf("matrix has %d cells, want 74", total)
	}
	// Every protected cell survives; the unprotected attacked ones don't.
	if survived >= total || survived < total/2 {
		t.Errorf("implausible survival %d/%d", survived, total)
	}

	got := matrixTrace(cells)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(matrixGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	} else {
		want, err := os.ReadFile(matrixGoldenPath)
		if err != nil {
			t.Fatalf("read golden (run with GOLDEN_UPDATE=1 to create): %v", err)
		}
		if got != string(want) {
			t.Errorf("matrix trace diverged from %s:\ngot:\n%s", matrixGoldenPath, got)
		}
	}

}

// TestMatrixDeterminism reruns one fabric cell (composed: attacker +
// flap + controller kill + switch crash) and one standalone cell and
// demands bit-identical traces and cells — the per-seed determinism the
// gate's goldens rest on.
func TestMatrixDeterminism(t *testing.T) {
	o := DefaultOptions()
	for _, tc := range []struct{ app, fault string }{
		{"hula", FaultComposed},
		{"netcache", FaultComposed},
	} {
		c1, t1, err := RunCell(tc.app, tc.fault, true, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.app, err)
		}
		c2, t2, err := RunCell(tc.app, tc.fault, true, o)
		if err != nil {
			t.Fatalf("%s rerun: %v", tc.app, err)
		}
		if t1 != t2 {
			t.Errorf("%s/%s: trace diverged across identical seeded runs", tc.app, tc.fault)
		}
		if c1 != c2 {
			t.Errorf("%s/%s: cell diverged: %+v vs %+v", tc.app, tc.fault, c1, c2)
		}
		if !strings.Contains(t1, "fault="+tc.fault) && !strings.Contains(t1, tc.fault) {
			t.Errorf("%s: trace does not mention its fault:\n%s", tc.app, t1)
		}
	}
}

// matrixTrace renders the cells as a canonical, deterministic string —
// one line per cell in sorted order — for golden comparisons. Scores are
// rounded to two decimals so the trace pins semantics, not float dust.
// TestTableIReadsTheMatrix (internal/bench) renders Table I's cells in
// the same line format.
func matrixTrace(cells []Cell) string {
	lines := make([]string, 0, len(cells))
	for _, c := range cells {
		lines = append(lines, fmt.Sprintf(
			"%s fault=%s protected=%v score=%.2f forged=%d detected=%t survived=%v",
			c.App, c.Fault, c.Protected, c.Score, c.ForgedApplied, c.Detected > 0, c.Survived))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
