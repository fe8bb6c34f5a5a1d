// Fleet matrix artifact: the app × fault × protection survival matrix
// from the internal/fleet scenario harness, plus wall-clock throughput
// of the k=8 fat-tree fabric and the pod-replicated RouteScout
// deployment. The matrix is the paper's Table I protection story run
// fleet-wide; the throughput rows are wall time, not virtual time.
package bench

import (
	"fmt"
	"time"

	"p4auth/internal/fleet"
)

// MatrixOpts parameterizes the fleet-matrix collection.
type MatrixOpts struct {
	// MatrixK is the fat-tree arity (and standalone pod count) for the
	// survival matrix (default 4).
	MatrixK int
	// TputK is the arity for the throughput rows (default 8: 80
	// switches).
	TputK int
	// TputLoad is the fabric data window for throughput rows (default
	// 4 ms — the k=8 fabric carries ~1.8k packets plus ~250k probe
	// events per run).
	TputLoad time.Duration
	// Seed drives every PRNG (default the fleet default).
	Seed uint64
}

// DefaultMatrixOpts is the checked-in artifact configuration.
func DefaultMatrixOpts() MatrixOpts {
	return MatrixOpts{
		MatrixK:  4,
		TputK:    8,
		TputLoad: 4 * time.Millisecond,
		Seed:     fleet.DefaultOptions().Seed,
	}
}

// MatrixTputRow is one throughput measurement: one app, wall-clock
// timed.
type MatrixTputRow struct {
	App       string  `json:"app"`
	K         int     `json:"k"`
	Ops       uint64  `json:"ops"`
	Score     float64 `json:"score"`
	WallMs    float64 `json:"wall_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// MatrixBlock is the fleet-matrix artifact: the full survival matrix
// plus one wall-clock throughput row per timed app.
type MatrixBlock struct {
	K        int             `json:"k"`
	Seed     uint64          `json:"seed"`
	Survived int             `json:"survived"`
	Total    int             `json:"total"`
	Cells    []fleet.Cell    `json:"cells"`
	Tput     []MatrixTputRow `json:"throughput"`
}

// tputApps are the apps the throughput rows time: the fabric and
// RouteScout (the heaviest standalone driver, as a fixed-cost baseline).
var tputApps = []string{"hula", "routescout"}

// RunMatrixBench collects the fleet-matrix artifact.
func RunMatrixBench(o MatrixOpts) (*MatrixBlock, error) {
	mo := fleet.DefaultOptions()
	mo.K = o.MatrixK
	mo.Seed = o.Seed
	m, err := fleet.RunMatrix(mo)
	if err != nil {
		return nil, err
	}
	survived, total := m.Survival()
	out := &MatrixBlock{K: m.K, Seed: m.Seed, Survived: survived, Total: total, Cells: m.Cells}

	for _, app := range tputApps {
		to := fleet.Options{
			K:            o.TputK,
			Seed:         o.Seed,
			LoadDuration: o.TputLoad,
		}
		start := time.Now()
		cell, _, err := fleet.RunCell(app, fleet.FaultNone, true, to)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", app, err)
		}
		wall := time.Since(start)
		out.Tput = append(out.Tput, MatrixTputRow{
			App:       app,
			K:         o.TputK,
			Ops:       cell.Delivered,
			Score:     cell.Score,
			WallMs:    float64(wall.Nanoseconds()) / 1e6,
			OpsPerSec: float64(cell.Delivered) / wall.Seconds(),
		})
	}
	return out, nil
}

// FleetMatrix renders the artifact as a report for the experiment list.
func FleetMatrix(o MatrixOpts) (*Report, error) {
	mb, err := RunMatrixBench(o)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "matrix",
		Title:   fmt.Sprintf("fleet survival matrix (k=%d) + k=%d wall-clock throughput", mb.K, o.TputK),
		Columns: []string{"app", "fault", "protected", "score", "forged", "detected", "survived"},
	}
	for _, c := range mb.Cells {
		rep.Rows = append(rep.Rows, []string{
			c.App, c.Fault, fmt.Sprintf("%v", c.Protected),
			fmt.Sprintf("%.2f", c.Score),
			fmt.Sprintf("%d", c.ForgedApplied),
			fmt.Sprintf("%d", c.Detected),
			fmt.Sprintf("%v", c.Survived),
		})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d/%d cells survived; every protected cell applied zero forged operations", mb.Survived, mb.Total))
	for _, r := range mb.Tput {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"tput %-10s k=%d: %6.0f ops/s over %7.1f ms wall (score %.2f)",
			r.App, r.K, r.OpsPerSec, r.WallMs, r.Score))
	}
	return rep, nil
}
