package bench

import (
	"fmt"
	"time"

	"p4auth/internal/netsim/chaos"
)

// N-replica controller-group failover benchmark: fleet takeover time
// under the deterministic group chaos harness at N=3 and N=5, measured
// from the first fault (active killed) to the final winner serving the
// whole fleet warm — through the rolling-kill scenario, so every number
// includes the worst case the group supports: each successor dying
// mid-promotion until only the last rank remains.

// groupSeed fixes the chaos schedule so the rows are comparable across
// commits.
const groupSeed = 0x6B0B

// Group regenerates the N-replica failover report.
func Group() (*Report, error) {
	rep := &Report{
		ID:    "Group",
		Title: "N-replica group failover under rolling kills (virtual time)",
		Columns: []string{
			"replicas", "switches", "chained", "wait-outs", "failover", "final epoch",
		},
		Notes: []string{
			"rolling-kill: active killed, then every successor mid-promotion; last rank finishes warm",
			"failover = first fault to final winner serving; each dead grant waited out in full (TTL is the detection bound)",
		},
	}
	for _, n := range []int{3, 5} {
		res, err := chaos.RunGroup(chaos.GroupOptions{
			Seed:     groupSeed,
			Scenario: chaos.GroupRollingKill,
			Replicas: n,
			Switches: 16,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: group run n=%d: %w", n, err)
		}
		if len(res.Violations) > 0 {
			return nil, fmt.Errorf("bench: group run n=%d violated invariants: %s", n, res.Violations[0])
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", res.Replicas),
			fmt.Sprintf("%d", res.Switches),
			fmt.Sprintf("%d", res.Chained),
			fmt.Sprintf("%d", res.WaitOuts),
			fmt.Sprintf("%.1fms", float64(res.FailoverTime)/float64(time.Millisecond)),
			fmt.Sprintf("%d", res.Epoch),
		})
	}
	return rep, nil
}
