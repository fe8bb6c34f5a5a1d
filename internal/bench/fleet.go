package bench

import (
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/crypto"
	"p4auth/internal/netsim/chaos"
)

// Fleet-scale control-plane benchmark: aggregate authenticated write
// throughput of the sharded controller across a 64-switch fleet, plus
// the failover time of the lease-fenced active/standby pair: the group
// chaos harness at N=2 with the active killed mid-rollover. The
// single-switch serial and windowed numbers (Fig. 19 and its pipelined
// variant) measure one lane; this measures the whole highway —
// per-switch shard workers drain concurrently, so fleet wall time is the
// slowest shard, not the sum.

// The fleet's size, its per-shard in-flight window and the writes each
// shard carries.
const (
	fleetSwitches        = 64
	fleetWindow          = 32
	fleetWritesPerSwitch = 64
)

// Fleet regenerates the fleet-scale report: aggregate sharded throughput
// against the single-switch serial baseline, and the bounded failover.
func Fleet() (*Report, error) {
	c := controller.New(crypto.NewSeededRand(0xF1EE7))
	names := make([]string, fleetSwitches)
	for i := range names {
		names[i] = fmt.Sprintf("b%02d", i)
		if err := addSwitch(c, names[i], false, 0); err != nil {
			return nil, err
		}
	}
	ss, err := c.NewShardSet(names, fleetWindow)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		for k := 0; k < fleetWritesPerSwitch; k++ {
			if err := ss.Submit(n, controller.RegWrite{
				Register: benchReg, Index: uint32(k % 1024), Value: uint64(k),
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := ss.DrainParallel(); err != nil {
		return nil, fmt.Errorf("bench: fleet drain: %w", err)
	}
	tot, wall := ss.FleetTotals()
	if tot.Failed > 0 || tot.Landed != fleetSwitches*fleetWritesPerSwitch {
		return nil, fmt.Errorf("bench: fleet landed %d/%d (failed %d)",
			tot.Landed, fleetSwitches*fleetWritesPerSwitch, tot.Failed)
	}
	if wall <= 0 {
		return nil, fmt.Errorf("bench: non-positive fleet wall time")
	}
	tput := float64(tot.Landed) * float64(time.Second) / float64(wall)

	// Single-switch serial baseline for the speedup claim.
	sc, err := pipelinedFixture()
	if err != nil {
		return nil, err
	}
	serial, err := pipelinedWriteTput(sc, 256, 1)
	if err != nil {
		return nil, err
	}

	// Failover time from the deterministic pair run: active killed
	// mid-rollover at fleet scale, standby promotes warm.
	ha, err := chaos.RunGroup(chaos.GroupOptions{
		Seed:     0xFA11,
		Replicas: 2,
		Switches: fleetSwitches,
		Scenario: chaos.GroupRollingKill,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: pair failover run: %w", err)
	}
	if len(ha.Violations) > 0 {
		return nil, fmt.Errorf("bench: pair failover run violated invariants: %s", ha.Violations[0])
	}

	rep := &Report{
		ID:    "Fleet",
		Title: "Sharded fleet throughput and lease-fenced failover",
		Columns: []string{
			"switches", "window", "fleet tput", "single-switch serial", "speedup", "failover", "epoch",
		},
		Rows: [][]string{{
			fmt.Sprintf("%d", fleetSwitches),
			fmt.Sprintf("%d", fleetWindow),
			fmt.Sprintf("%.0f/s", tput),
			fmt.Sprintf("%.0f/s", serial),
			fmt.Sprintf("%.1fx", tput/serial),
			fmt.Sprintf("%.1fms", float64(ha.FailoverTime)/float64(time.Millisecond)),
			fmt.Sprintf("%d", ha.Epoch),
		}},
		Notes: []string{
			"fleet tput = landed writes / max shard wall time (shards drain concurrently)",
			"failover = virtual time from active kill mid-rollover to warm standby serving (group chaos, N=2 rolling-kill)",
			"epoch = fencing epoch after the takeover (bootstrap grant + one promotion)",
		},
	}
	return rep, nil
}
