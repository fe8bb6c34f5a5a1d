package fleet

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const cellsGoldenPath = "testdata/cells_k4.golden"

// matrixCell is one cell of the default-options matrix and the sha256 of
// its RunCell trace.
type matrixCell struct {
	Cell
	traceHash [sha256.Size]byte
}

// matrix holds the one pass over the default-options matrix that
// TestCellsGolden and TestMatrixChaos both read.
var matrix struct {
	once  sync.Once
	cells []matrixCell
	err   error
}

// defaultMatrix runs every cell of the k=4 matrix with the default
// options once per test binary, in RunMatrix's order (RunMatrix itself
// drops the traces), and returns the cells to every caller.
func defaultMatrix(t *testing.T) []matrixCell {
	t.Helper()
	matrix.once.Do(func() {
		o := DefaultOptions()
		for _, app := range Apps() {
			for _, fault := range FaultsFor(app) {
				for _, protected := range []bool{true, false} {
					c, tr, err := RunCell(app, fault, protected, o)
					if err != nil {
						matrix.err = fmt.Errorf("%s/%s/protected=%v: %w", app, fault, protected, err)
						return
					}
					matrix.cells = append(matrix.cells, matrixCell{c, sha256.Sum256([]byte(tr))})
				}
			}
		}
	})
	if matrix.err != nil {
		t.Fatal(matrix.err)
	}
	return matrix.cells
}

// TestCellsGolden pins every cell of the k=4 matrix in full, the 18
// fabric cells and the 56 standalone ones: the exact detection count,
// the load, the score at full precision, and a hash of the cell's RunCell
// trace. matrix_k4.golden rounds the score and prints detection as a
// bool, so a change in how many alerts an adversary raises, how many
// tampered operations an app counts, or when a fabric fault is scheduled
// shows here and nowhere else. Regenerate with GOLDEN_UPDATE=1 only after
// an intentional semantic change.
func TestCellsGolden(t *testing.T) {
	o := DefaultOptions()
	var b strings.Builder
	fmt.Fprintf(&b, "# matrix cells, k=%d seed=%#x: exact Cell fields and sha256 of the RunCell trace\n", o.K, o.Seed)
	for _, c := range defaultMatrix(t) {
		fmt.Fprintf(&b, "%s fault=%s protected=%v score=%s forged=%d detected=%d sent=%d delivered=%d survived=%v note=%q trace=%x\n",
			c.App, c.Fault, c.Protected, strconv.FormatFloat(c.Score, 'g', -1, 64),
			c.ForgedApplied, c.Detected, c.Sent, c.Delivered, c.Survived, c.Note, c.traceHash)
	}
	got := b.String()
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(cellsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(cellsGoldenPath)
	if err != nil {
		t.Fatalf("read golden (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("matrix cells diverged from %s:\ngot:\n%s", cellsGoldenPath, got)
	}
}
