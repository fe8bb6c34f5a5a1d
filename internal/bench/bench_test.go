package bench

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"p4auth/internal/fleet"
)

// parsePct turns "72.2%" into 0.722.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent %q: %v", s, err)
	}
	return v / 100
}

func parseDur(t *testing.T, s string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatalf("bad duration %q: %v", s, err)
	}
	return d
}

func TestReportFormatting(t *testing.T) {
	r := &Report{
		ID:      "X",
		Title:   "T",
		Columns: []string{"a", "bee"},
		Rows:    [][]string{{"1", "2"}, {"long-cell", "3"}},
		Notes:   []string{"n1"},
	}
	out := r.String()
	for _, want := range []string{"=== X: T ===", "long-cell", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// Table I columns, as TableI prints them.
const (
	t1App = iota
	_
	_
	t1Clean
	t1Attacked
	t1WithAuth
	t1Forged
	t1ForgedAuth
	t1Detected
	t1DetectedAuth
	t1Survived
)

func parseNum(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad number %q: %v", s, err)
	}
	return v
}

func tableIRows(t *testing.T) [][]string {
	t.Helper()
	rep, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 systems", len(rep.Rows))
	}
	return rep.Rows
}

func TestTableIShape(t *testing.T) {
	for _, r := range tableIRows(t) {
		clean, attacked, protected := parseNum(t, r[t1Clean]), parseNum(t, r[t1Attacked]), parseNum(t, r[t1WithAuth])
		if attacked >= clean {
			t.Errorf("%s: attacked %.2f >= clean %.2f", r[t1App], attacked, clean)
		}
		if protected != clean {
			t.Errorf("%s: protected %.2f != clean %.2f", r[t1App], protected, clean)
		}
		if parseNum(t, r[t1Forged]) == 0 || parseNum(t, r[t1ForgedAuth]) != 0 {
			t.Errorf("%s: forged %s / %s, want > 0 only when unprotected", r[t1App], r[t1Forged], r[t1ForgedAuth])
		}
		if parseNum(t, r[t1Detected]) != 0 || parseNum(t, r[t1DetectedAuth]) == 0 {
			t.Errorf("%s: detected %s / %s, want > 0 only when protected", r[t1App], r[t1Detected], r[t1DetectedAuth])
		}
	}
}

// TestTableIReadsTheMatrix holds Table I to the checked-in survival
// matrix: every printed cell, rendered the way the matrix renders its
// own, must be the golden's cell for that app, so the table cannot grow a
// second source of numbers. The clean arm's forged and detected counts
// are not printed; the golden has them at 0.
func TestTableIReadsTheMatrix(t *testing.T) {
	golden, err := os.ReadFile("../fleet/testdata/matrix_k4.golden")
	if err != nil {
		t.Fatal(err)
	}
	var m fleet.Matrix
	for _, r := range tableIRows(t) {
		survived := strings.Split(r[t1Survived], "/")
		if len(survived) != 3 {
			t.Fatalf("%s: survived cell %q", r[t1App], r[t1Survived])
		}
		cell := func(fault string, protected bool, score, forged, detected, survived string) fleet.Cell {
			return fleet.Cell{
				App: r[t1App], Fault: fault, Protected: protected,
				Score:         parseNum(t, score),
				ForgedApplied: int(parseNum(t, forged)),
				Detected:      int(parseNum(t, detected)),
				Survived:      survived == "true",
			}
		}
		m.Cells = append(m.Cells,
			cell(fleet.FaultNone, false, r[t1Clean], "0", "0", survived[0]),
			cell(fleet.FaultAttack, false, r[t1Attacked], r[t1Forged], r[t1Detected], survived[1]),
			cell(fleet.FaultAttack, true, r[t1WithAuth], r[t1ForgedAuth], r[t1DetectedAuth], survived[2]))
	}
	for _, line := range strings.Split(strings.TrimSpace(m.Trace()), "\n") {
		if !strings.Contains("\n"+string(golden), "\n"+line+"\n") {
			t.Errorf("not a matrix_k4.golden cell: %s", line)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time run")
	}
	opts := DefaultFig16Opts()
	opts.Duration = 800 * time.Millisecond
	rep, err := Fig16(opts)
	if err != nil {
		t.Fatal(err)
	}
	clean1 := parsePct(t, rep.Rows[0][1])
	atk2 := parsePct(t, rep.Rows[1][2])
	prot1 := parsePct(t, rep.Rows[2][1])
	if clean1 < 0.55 {
		t.Errorf("clean path1 share %.2f, want fast-path majority", clean1)
	}
	if atk2 < 0.55 {
		t.Errorf("attacked path2 share %.2f, want diverted majority (paper ~70%%)", atk2)
	}
	if diff := prot1 - clean1; diff < -0.1 || diff > 0.1 {
		t.Errorf("P4Auth split %.2f deviates from clean %.2f", prot1, clean1)
	}
}

func TestFig17Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time run")
	}
	opts := DefaultFig17Opts()
	opts.Duration = 80 * time.Millisecond
	rep, err := Fig17(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Clean roughly balanced.
	for col := 1; col <= 3; col++ {
		if s := parsePct(t, rep.Rows[0][col]); s < 0.2 || s > 0.5 {
			t.Errorf("clean share col %d = %.2f", col, s)
		}
	}
	if s4 := parsePct(t, rep.Rows[1][3]); s4 < 0.7 {
		t.Errorf("attacked S4 share %.2f, paper >70%%", s4)
	}
	if s4 := parsePct(t, rep.Rows[2][3]); s4 > 0.1 {
		t.Errorf("protected S4 share %.2f, want blocked", s4)
	}
}

func TestFig18Fig19Shape(t *testing.T) {
	opts := RegRWOpts{Requests: 50}
	rep18, err := Fig18(opts)
	if err != nil {
		t.Fatal(err)
	}
	var rct = map[string][2]time.Duration{}
	for _, row := range rep18.Rows {
		rct[row[0]] = [2]time.Duration{parseDur(t, row[1]), parseDur(t, row[2])}
	}
	// P4Runtime read clearly faster than its write (compose asymmetry).
	if r := float64(rct["P4Runtime"][1]) / float64(rct["P4Runtime"][0]); r < 1.4 || r > 2.0 {
		t.Errorf("P4Runtime write/read RCT ratio %.2f, want ~1.7", r)
	}
	// P4Auth within a few percent of DP-Reg-RW.
	over := float64(rct["P4Auth"][0])/float64(rct["DP-Reg-RW"][0]) - 1
	if over < 0 || over > 0.10 {
		t.Errorf("P4Auth read RCT overhead %.3f, want small positive", over)
	}
	// Writes comparable across all three (paper's observation).
	wMin, wMax := rct["P4Runtime"][1], rct["P4Runtime"][1]
	for _, v := range rct {
		if v[1] < wMin {
			wMin = v[1]
		}
		if v[1] > wMax {
			wMax = v[1]
		}
	}
	if float64(wMax)/float64(wMin) > 1.35 {
		t.Errorf("write RCT spread %.2fx, paper: not much difference", float64(wMax)/float64(wMin))
	}

	if _, err := Fig19(opts); err != nil {
		t.Fatal(err)
	}
}

func TestTableIIShape(t *testing.T) {
	rep, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	base, pa := rep.Rows[0], rep.Rows[1]
	if base[1] != pa[1] {
		t.Errorf("TCAM should be unchanged: %s vs %s", base[1], pa[1])
	}
	baseHash := parsePct(t, base[3])
	paHash := parsePct(t, pa[3])
	if baseHash > 0.05 {
		t.Errorf("baseline hash %.3f, want small", baseHash)
	}
	if paHash < 0.35 || paHash > 0.75 {
		t.Errorf("P4Auth hash %.3f, paper ~51%%", paHash)
	}
	if parsePct(t, pa[2]) <= parsePct(t, base[2]) {
		t.Error("SRAM must grow with P4Auth")
	}
	if parsePct(t, pa[4]) <= parsePct(t, base[4]) {
		t.Error("PHV must grow with P4Auth")
	}
}

func TestFig20Shape(t *testing.T) {
	opts := DefaultFig20Opts()
	opts.Samples = 5
	rep, err := Fig20(opts)
	if err != nil {
		t.Fatal(err)
	}
	get := func(i int) time.Duration { return parseDur(t, rep.Rows[i][1]) }
	localInit, localUpd, portInit, portUpd := get(0), get(1), get(2), get(3)
	if !(portInit > localInit) {
		t.Errorf("port init %v should be the longest (vs local init %v)", portInit, localInit)
	}
	if !(localUpd < localInit) {
		t.Errorf("local update %v should beat local init %v", localUpd, localInit)
	}
	if !(portUpd < localUpd) {
		t.Errorf("port update %v should beat local update %v (paper)", portUpd, localUpd)
	}
	if localInit > 5*time.Millisecond || localInit < 100*time.Microsecond {
		t.Errorf("local init %v out of the paper's 1-2 ms regime", localInit)
	}
}

func TestFig21Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time run")
	}
	opts := DefaultFig21Opts()
	opts.Samples = 2
	rep, err := Fig21(opts)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for i, row := range rep.Rows {
		ov, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(row[3], "+"), "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if ov <= prev {
			t.Errorf("row %d: overhead %.2f%% not increasing (prev %.2f%%)", i, ov, prev)
		}
		prev = ov
		if ov > 8 {
			t.Errorf("row %d: overhead %.2f%% out of the paper's small regime", i, ov)
		}
	}
	if prev < 2 {
		t.Errorf("10-hop overhead %.2f%%, want a few percent", prev)
	}
}

func TestTableIIIShape(t *testing.T) {
	opts := TableIIIOpts{Switches: 6, Links: 9}
	rep, err := TableIII(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Messages must match the closed forms exactly.
	if rep.Rows[0][1] != rep.Rows[0][2] {
		t.Errorf("init messages %s != formula %s", rep.Rows[0][1], rep.Rows[0][2])
	}
	if rep.Rows[1][1] != rep.Rows[1][2] {
		t.Errorf("update messages %s != formula %s", rep.Rows[1][1], rep.Rows[1][2])
	}
}

func TestAblationShape(t *testing.T) {
	rep, err := AblationDigest()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if rep.Rows[0][5] != "yes" {
		t.Error("32-bit digest must fit Tofino")
	}
	if rep.Rows[3][5] != "no" {
		t.Error("256-bit digest must not fit Tofino")
	}
	// Stage growth at 256-bit should be >= 2x (paper: +100%).
	s32, _ := strconv.Atoi(rep.Rows[0][3])
	s256, _ := strconv.Atoi(rep.Rows[3][3])
	if s256 < 2*s32 {
		t.Errorf("stages %d -> %d, want at least 2x", s32, s256)
	}
	// Hash growth ~ +560%.
	if !strings.Contains(rep.Rows[3][1], "+5") {
		t.Errorf("256-bit hash growth = %q, want ~+560%%", rep.Rows[3][1])
	}
}

func TestAllRunnersListed(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range All() {
		if ids[r.ID] {
			t.Errorf("duplicate runner %s", r.ID)
		}
		ids[r.ID] = true
	}
	for _, want := range []string{"table1", "fig16", "fig17", "fig18", "fig19", "table2", "fig20", "fig21", "table3", "ablation", "fleet"} {
		if !ids[want] {
			t.Errorf("missing runner %s", want)
		}
	}
}
