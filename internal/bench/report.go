// Package bench regenerates every table and figure of the paper's
// evaluation (§IX) plus the §XI digest-width ablation. Each runner returns
// a Report that prints as an aligned text table; cmd/p4auth-bench prints
// them in paper order, and testdata/reports.golden, byte for byte what it
// prints, is the contract: moving a paper number is a golden diff.
//
// Every runner has one configuration, its package constants, and every
// time it reports is virtual. The cost model behind those times
// (internal/switchos, internal/pisa, the controller's sign/verify cost)
// has paper-derived constants, documented there and in EXPERIMENTS.md;
// the reproduction target is the paper's shape — who wins, by what rough
// factor, and how trends move — not testbed-exact numbers.
package bench

import (
	"fmt"
	"strings"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/deploy"
	"p4auth/internal/pisa"
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
		{"table1", TableI},
		{"fig16", Fig16},
		{"fig17", Fig17},
		{"fig18", Fig18},
		{"fig19", Fig19},
		{"fig19p", Fig19Pipelined},
		{"fleet", Fleet},
		{"group", Group},
		{"hierarchy", HierarchyBench},
		{"table2", TableII},
		{"fig20", Fig20},
		{"fig21", Fig21},
		{"table3", TableIII},
		{"ablation", AblationDigest},
	}
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// benchReg is the register the C-DP experiments read and write.
const benchReg = "bench_reg"

// addSwitch builds a 4-port switch holding benchReg, registers it with c
// over a C-DP link of one-way latency lat and, unless it is insecure,
// establishes its local key.
func addSwitch(c *controller.Controller, name string, insecure bool, lat time.Duration) error {
	sw, err := deploy.Build(deploy.SwitchSpec{
		Name:      name,
		Ports:     4,
		Insecure:  insecure,
		Registers: []*pisa.RegisterDef{{Name: benchReg, Width: 64, Entries: 1024}},
	})
	if err != nil {
		return err
	}
	if err := c.Register(name, sw.Host, sw.Cfg, lat); err != nil {
		return err
	}
	if insecure {
		return nil
	}
	_, err = c.LocalKeyInit(name)
	return err
}
