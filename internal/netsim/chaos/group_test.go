package chaos

import (
	"fmt"
	"testing"
)

// TestGroupShort is the fixed-seed group subset of the chaos gate in
// scripts/check.sh (make chaos): every scenario valid at N=3 and 5, two
// seeds each — chained succession, split-brain, store outage and
// multi-way acquisition races. The N=2 rows are TestHAShort. Every run
// must end with exactly one warm active, zero forged or stale-fenced
// writes applied, bounded failover, and an exactly reconciled audit
// trail.
func TestGroupShort(t *testing.T) {
	for _, scenario := range []GroupScenario{GroupRollingKill, GroupSplitBrain, GroupStoreOutage, GroupAcquireRace} {
		for _, n := range []int{3, 5} {
			for _, seed := range []uint64{0xA1, 0xB2} {
				o := GroupOptions{Seed: seed, Scenario: scenario, Replicas: n}
				t.Run(fmt.Sprintf("%s/n=%d/seed=%#x", scenario, n, seed), func(t *testing.T) {
					t.Parallel()
					checkGroupRun(t, o)
				})
			}
		}
	}
}

// checkGroupRun runs o clean and checks that it bit and ended where its
// scenario must: the last rank after a rolling kill, rank 2 after an
// acquisition race, rank 1 otherwise.
func checkGroupRun(t *testing.T, o GroupOptions) *GroupResult {
	t.Helper()
	res := runClean(t, RunGroup, o)
	if !res.WarmAll {
		t.Fatal("final promotion was not warm everywhere")
	}
	if res.FencedAttempts == 0 || res.Landed == 0 {
		t.Fatalf("scenario did not bite: fenced=%d landed=%d",
			res.FencedAttempts, res.Landed)
	}
	n := o.Replicas
	winner, epoch := "ctl-1", uint64(2)
	switch o.Scenario {
	case GroupRollingKill:
		if res.Chained != n-2 {
			t.Fatalf("chain = %d, want %d", res.Chained, n-2)
		}
		winner, epoch = fmt.Sprintf("ctl-%d", n-1), uint64(n)
	case GroupStoreOutage:
		if res.DegradedAdmits == 0 {
			t.Fatal("no degraded admissions — the blip was not exercised")
		}
	case GroupAcquireRace:
		winner = "ctl-2"
	}
	if res.Winner != winner || res.Epoch != epoch {
		t.Fatalf("winner %s epoch %d, want %s epoch %d", res.Winner, res.Epoch, winner, epoch)
	}
	return res
}

// TestGroupDeterminism re-executes one run per scenario at N=4 and
// requires bit-for-bit identical traces.
func TestGroupDeterminism(t *testing.T) {
	for _, scenario := range []GroupScenario{GroupRollingKill, GroupSplitBrain, GroupStoreOutage, GroupAcquireRace} {
		scenario := scenario
		t.Run(string(scenario), func(t *testing.T) {
			t.Parallel()
			o := GroupOptions{Seed: 42, Scenario: scenario, Replicas: 4}
			assertSameTrace(t, RunGroup, o)
		})
	}
}
