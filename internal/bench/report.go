// Package bench regenerates every table and figure of the paper's
// evaluation (§IX) plus the §XI digest-width ablation. Each runner returns
// a Report that prints as an aligned text table; cmd/p4auth-bench exposes
// them on the command line and the repository-root benchmarks wrap them
// as testing.B benchmarks.
//
// Absolute times come from the virtual-clock cost model calibrated in
// internal/switchos and internal/pisa (documented there and in
// EXPERIMENTS.md); the reproduction target is the paper's shape — who
// wins, by what rough factor, and how trends move — not testbed-exact
// numbers.
package bench

import (
	"fmt"
	"strings"
)

// Report is one regenerated table or figure.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is a named experiment.
type Runner struct {
	ID  string
	Run func() (*Report, error)
}

// All lists every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"table1", func() (*Report, error) { return TableI() }},
		{"fig16", func() (*Report, error) { return Fig16(DefaultFig16Opts()) }},
		{"fig17", func() (*Report, error) { return Fig17(DefaultFig17Opts()) }},
		{"fig18", func() (*Report, error) { return Fig18(DefaultRegRWOpts()) }},
		{"fig19", func() (*Report, error) { return Fig19(DefaultRegRWOpts()) }},
		{"fig19p", func() (*Report, error) { return Fig19Pipelined(DefaultFig19PipelinedOpts()) }},
		{"fleet", func() (*Report, error) { return Fleet(DefaultFleetOpts()) }},
		{"matrix", func() (*Report, error) { return FleetMatrix(DefaultMatrixOpts()) }},
		{"group", func() (*Report, error) { return Group() }},
		{"hierarchy", func() (*Report, error) { return HierarchyBench() }},
		{"table2", func() (*Report, error) { return TableII() }},
		{"fig20", func() (*Report, error) { return Fig20(DefaultFig20Opts()) }},
		{"fig21", func() (*Report, error) { return Fig21(DefaultFig21Opts()) }},
		{"table3", func() (*Report, error) { return TableIII(DefaultTableIIIOpts()) }},
		{"ablation", func() (*Report, error) { return AblationDigest() }},
	}
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
