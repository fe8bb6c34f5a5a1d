package main

import (
	"fmt"
	"io"

	"p4auth/internal/netsim/chaos"
)

// hierarchySeed fixes the reference run; the chaos harness is fully
// deterministic over (seed, scenario), so two invocations print
// byte-identical output.
const hierarchySeed = 7

// runHierarchy implements the `hierarchy` subcommand: a deterministic
// reference run of the two-tier control plane through both chaos
// scenarios. The WAN-partition run walks forged/torn broker-frame
// sweeps, a latency spike survived inside the retry budget, a pod cut
// off from the global broker serving intra-pod on cached cross-pod
// keys with rollovers deferred, and the post-heal flush and bounded
// reconvergence. The global-kill run walks the broker tier going dark
// (every pod refused, zero establishments), pods still serving, and a
// fenced election at the next epoch restoring cross-pod rollovers.
func runHierarchy(w io.Writer) error {
	for _, sc := range []chaos.HierarchyScenario{chaos.HierarchyWANPartition, chaos.HierarchyGlobalKill} {
		res, err := chaos.RunHierarchy(chaos.HierarchyOptions{Seed: hierarchySeed, Scenario: sc})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== hierarchy chaos reference run: scenario %s (seed %d) ==\n", sc, hierarchySeed)
		for _, line := range res.Trace {
			fmt.Fprintln(w, line)
		}
		fmt.Fprintf(w, "-- result: establishes=%d grants=%d served=%d refusals=%d forged_dropped=%d torn_dropped=%d\n",
			res.Establishes, res.Grants, res.Served, res.Refusals, res.ForgedDropped, res.TornDropped)
		fmt.Fprintf(w, "-- result: deferred=%d flushed=%d reconverge=%v final_epoch=%d violations=%d\n",
			res.Deferred, res.Flushed, res.ReconvergeTime, res.FinalEpoch, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(w, "VIOLATION: %s\n", v)
		}
		if len(res.Violations) > 0 {
			return fmt.Errorf("hierarchy scenario %s: %d invariant violations", sc, len(res.Violations))
		}
		fmt.Fprintln(w)
	}
	return nil
}
