package bench

import (
	"fmt"

	"p4auth/internal/fleet"
)

// tableISystems lists the five system classes of Table I in paper order,
// each with what a fleet cell's health score (1.00 = intact) measures
// for that app.
var tableISystems = []struct{ app, class, score string }{
	{"blink", "fast reroute", "reroutes landing on the intended backup"},
	{"silkroad", "load balancing", "connections on the live DIP pool"},
	{"netwarden", "intrusion detection", "correct IDS verdicts"},
	{"netcache", "in-network caching", "cache hit rate"},
	{"flowradar", "measurement", "flows decoded exactly"},
}

// TableI regenerates Table I as the measured impact of altering C-DP
// messages in the switch stack on the five in-network system classes:
// clean, attacked, and attacked with P4Auth. It is a view of the fleet
// survival matrix: every number is a fleet.RunCell cell at the default
// options, the same cells internal/fleet/testdata/matrix_k4.golden pins.
func TableI() (*Report, error) {
	rep := &Report{
		ID:    "Table I",
		Title: "Impact of altering C-DP update/report messages",
		Columns: []string{"System", "Class", "Health score", "clean", "attacked", "with P4Auth",
			"forged", "forged (P4Auth)", "detected", "detected (P4Auth)", "survived"},
	}
	o := fleet.DefaultOptions()
	arms := []struct {
		fault     string
		protected bool
	}{{fleet.FaultNone, false}, {fleet.FaultAttack, false}, {fleet.FaultAttack, true}}
	for _, s := range tableISystems {
		var c [3]fleet.Cell
		for i, a := range arms {
			var err error
			if c[i], _, err = fleet.RunCell(s.app, a.fault, a.protected, o); err != nil {
				return nil, fmt.Errorf("bench: table1 %s: %w", s.app, err)
			}
		}
		rep.Rows = append(rep.Rows, []string{
			s.app, s.class, s.score,
			fmt.Sprintf("%.2f", c[0].Score), fmt.Sprintf("%.2f", c[1].Score), fmt.Sprintf("%.2f", c[2].Score),
			fmt.Sprint(c[1].ForgedApplied), fmt.Sprint(c[2].ForgedApplied),
			fmt.Sprint(c[1].Detected), fmt.Sprint(c[2].Detected),
			fmt.Sprintf("%v/%v/%v", c[0].Survived, c[1].Survived, c[2].Survived),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper's Table I is qualitative; these are the measured impacts of the same attack classes",
		fmt.Sprintf("each cell is fleet.RunCell at k=%d, seed %#x (one instance per pod; forged and detected are summed over pods); internal/fleet/testdata/matrix_k4.golden has every fault column", o.K, o.Seed))
	return rep, nil
}
