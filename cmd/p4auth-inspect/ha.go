package main

import (
	"fmt"
	"io"

	"p4auth/internal/netsim/chaos"
)

// haRuns are the failover reference runs: the lease-fenced pair (N=2)
// through both of its failure modes, and a 3-replica group through a
// store outage. Each is the pinned trace-golden run of the same name in
// internal/netsim/chaos (group/n2-rolling-kill, group/n2-split-brain,
// group/store-outage), so the output is byte-stable per commit.
var haRuns = []chaos.GroupOptions{
	{Seed: 5, Replicas: 2, Switches: 4, Scenario: chaos.GroupRollingKill},
	{Seed: 5, Replicas: 2, Switches: 4, Scenario: chaos.GroupSplitBrain},
	{Seed: 9, Replicas: 3, Switches: 4, Scenario: chaos.GroupStoreOutage},
}

// runHA implements the `ha` subcommand: the failover reference runs of
// the group chaos harness — the pair's active killed mid-rollover and its
// split-brain lease lapse, then a store blip ridden out on the
// bounded-staleness fence and an outage past it. Each run shows its event
// trace (fencing refusals, the pre-expiry takeover refused, warm
// promotion, queued writes landing through the winner) and its invariant
// summary.
func runHA(w io.Writer) error {
	for _, o := range haRuns {
		if err := printFailoverRun(w, o); err != nil {
			return err
		}
	}
	return nil
}

// printFailoverRun runs one reference run and prints its trace and
// result, or an error naming the scenario if any invariant broke.
func printFailoverRun(w io.Writer, o chaos.GroupOptions) error {
	res, err := chaos.RunGroup(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== failover reference run: scenario %s, %d replicas, %d switches (seed %d) ==\n",
		o.Scenario, res.Replicas, res.Switches, o.Seed)
	for _, line := range res.Trace {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "-- result: winner=%s epoch=%d chained=%d waitouts=%d failover=%v warm=%v\n",
		res.Winner, res.Epoch, res.Chained, res.WaitOuts, res.FailoverTime, res.WarmAll)
	fmt.Fprintf(w, "-- result: degraded_admits=%d fenced=%d landed=%d violations=%d\n",
		res.DegradedAdmits, res.FencedAttempts, res.Landed, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("failover scenario %s: %d invariant violations", o.Scenario, len(res.Violations))
	}
	fmt.Fprintln(w)
	return nil
}
