package bench

import (
	"bytes"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"p4auth/internal/fleet"
)

// reportsGolden is byte for byte what `go run ./cmd/p4auth-bench` prints.
const reportsGolden = "testdata/reports.golden"

var rendered struct {
	once sync.Once
	byID map[string]*Report
	text []byte
	err  error
}

// reports runs every experiment once per test binary at its single
// configuration and renders the concatenation the way cmd/p4auth-bench
// prints it (each report followed by a blank line).
func reports(t *testing.T) (map[string]*Report, []byte) {
	t.Helper()
	rendered.once.Do(func() {
		rendered.byID = map[string]*Report{}
		var b bytes.Buffer
		for _, r := range All() {
			rep, err := r.Run()
			if err != nil {
				rendered.err = err
				return
			}
			rendered.byID[r.ID] = rep
			b.WriteString(rep.String())
			b.WriteByte('\n')
		}
		rendered.text = b.Bytes()
	})
	if rendered.err != nil {
		t.Fatal(rendered.err)
	}
	return rendered.byID, rendered.text
}

// report is one experiment's report from reports.
func report(t *testing.T, id string) *Report {
	t.Helper()
	byID, _ := reports(t)
	rep := byID[id]
	if rep == nil {
		t.Fatalf("no report %q", id)
	}
	return rep
}

// TestReportGoldens holds every report to testdata/reports.golden: a
// moved paper number is a golden diff. Regenerate (reviewed changes
// only) with GOLDEN_UPDATE=1 go test -run TestReportGoldens ./internal/bench/
func TestReportGoldens(t *testing.T) {
	_, got := reports(t)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(reportsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(reportsGolden)
	if err != nil {
		t.Fatalf("read golden (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got: %q\nwant: %q", reportsGolden, i+1, g, w)
		}
	}
}

// parsePct turns "72.2%" into 0.722.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	return parseNum(t, strings.TrimSuffix(s, "%")) / 100
}

func parseDur(t *testing.T, s string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatalf("bad duration %q: %v", s, err)
	}
	return d
}

func parseNum(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad number %q: %v", s, err)
	}
	return v
}

// parseRate turns "2596/s" into 2596.
func parseRate(t *testing.T, s string) float64 {
	t.Helper()
	return parseNum(t, strings.TrimSuffix(s, "/s"))
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

func tableIRows(t *testing.T) [][]string {
	t.Helper()
	rep := report(t, "table1")
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
	rep := report(t, "fig16")
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
	rep := report(t, "fig17")
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
	var rct = map[string][2]time.Duration{}
	for _, row := range report(t, "fig18").Rows {
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

	// Fig. 19 is the same measurement as a rate.
	for _, row := range report(t, "fig19").Rows {
		if want := float64(time.Second) / float64(rct[row[0]][1]); math.Abs(parseRate(t, row[2])-want) > 1 {
			t.Errorf("%s write tput %s, want 1s / %v", row[0], row[2], rct[row[0]][1])
		}
	}
}

func TestTableIIShape(t *testing.T) {
	rep := report(t, "table2")
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
	rep := report(t, "fig20")
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
	rep := report(t, "fig21")
	var prev float64
	for i, row := range rep.Rows {
		ov := 100 * parsePct(t, strings.TrimPrefix(row[3], "+"))
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
	rep := report(t, "table3")
	// Messages must match the closed forms exactly.
	if rep.Rows[0][1] != rep.Rows[0][2] {
		t.Errorf("init messages %s != formula %s", rep.Rows[0][1], rep.Rows[0][2])
	}
	if rep.Rows[1][1] != rep.Rows[1][2] {
		t.Errorf("update messages %s != formula %s", rep.Rows[1][1], rep.Rows[1][2])
	}
}

func TestAblationShape(t *testing.T) {
	rep := report(t, "ablation")
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

// TestFig19PipelinedSpeedup is the windowed transport's acceptance bar:
// at least 3x the serial authenticated write throughput at a window of 8.
func TestFig19PipelinedSpeedup(t *testing.T) {
	for _, row := range report(t, "fig19p").Rows {
		if row[0] == "8" {
			if s := parseNum(t, strings.TrimSuffix(row[2], "x")); s < 3 {
				t.Fatalf("window-8 speedup %.2fx, want >= 3x", s)
			}
			return
		}
	}
	t.Fatal("no window-8 row")
}

// TestFig19PipelinedReport: the sweep doubles the window from the serial
// baseline to 32, throughput rises with it, and window 1 is the same
// serial lane as Fig. 19's P4Auth write and the fleet's baseline.
func TestFig19PipelinedReport(t *testing.T) {
	rep := report(t, "fig19p")
	if len(rep.Rows) != 6 {
		t.Fatalf("rows: %d, want windows 1..32", len(rep.Rows))
	}
	var prev float64
	for i, row := range rep.Rows {
		if row[0] != strconv.Itoa(1<<i) {
			t.Errorf("row %d: window %s, want %d", i, row[0], 1<<i)
		}
		tput := parseRate(t, row[1])
		if tput <= prev {
			t.Errorf("window %s: %s not above the smaller window's", row[0], row[1])
		}
		prev = tput
	}
	serial := rep.Rows[0][1]
	if pa := report(t, "fig19").Rows[2]; pa[0] != "P4Auth" || pa[2] != serial {
		t.Errorf("Fig 19 %s write tput %s, want the window-1 %s", pa[0], pa[2], serial)
	}
	if fl := report(t, "fleet").Rows[0][3]; fl != serial {
		t.Errorf("fleet serial baseline %s, want the window-1 %s", fl, serial)
	}
}

// TestFleetShape: aggregate sharded throughput beats the single-switch
// serial baseline (shards drain concurrently), the HA chaos run inside
// the fleet measurement reports a bounded failover, and the takeover
// lands at epoch 2 (bootstrap grant + one promotion).
func TestFleetShape(t *testing.T) {
	rep := report(t, "fleet")
	if len(rep.Rows) != 1 || len(rep.Rows[0]) != len(rep.Columns) {
		t.Fatalf("fleet report shape: %d rows, %d columns", len(rep.Rows), len(rep.Columns))
	}
	r := rep.Rows[0]
	if tput, serial := parseRate(t, r[2]), parseRate(t, r[3]); tput <= serial {
		t.Errorf("fleet tput %s does not beat serial baseline %s", r[2], r[3])
	}
	if f := parseDur(t, r[5]); f <= 0 {
		t.Errorf("failover time %v, want > 0", f)
	}
	if r[6] != "2" {
		t.Errorf("failover epoch %s, want 2", r[6])
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
