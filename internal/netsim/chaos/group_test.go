package chaos

import (
	"fmt"
	"testing"
)

// TestGroupShort is the fixed-seed group subset of the chaos gate in
// scripts/check.sh (make chaos): all three N-replica failure
// modes — rolling kills with chained succession, store outage against
// the bounded-staleness fence, and multi-way acquisition races — at both
// N=3 and N=5, two seeds each. Every run must end with exactly one warm
// active, zero forged or stale-fenced writes applied, bounded failover,
// and an exactly reconciled audit trail.
func TestGroupShort(t *testing.T) {
	for _, scenario := range []GroupScenario{GroupRollingKill, GroupStoreOutage, GroupAcquireRace} {
		for _, n := range []int{3, 5} {
			for _, seed := range []uint64{0xA1, 0xB2} {
				scenario, n, seed := scenario, n, seed
				t.Run(fmt.Sprintf("%s/n=%d/seed=%#x", scenario, n, seed), func(t *testing.T) {
					t.Parallel()
					res := runClean(t, RunGroup, GroupOptions{Seed: seed, Scenario: scenario, Replicas: n})
					if !res.WarmAll {
						t.Fatal("final promotion was not warm everywhere")
					}
					if res.FencedAttempts == 0 || res.Landed == 0 {
						t.Fatalf("scenario did not bite: fenced=%d landed=%d",
							res.FencedAttempts, res.Landed)
					}
					switch scenario {
					case GroupRollingKill:
						if res.Chained != n-2 || res.Winner != fmt.Sprintf("ctl-%d", n-1) {
							t.Fatalf("chain = %d winner %s, want %d / ctl-%d",
								res.Chained, res.Winner, n-2, n-1)
						}
						if res.Epoch != uint64(n) {
							t.Fatalf("epoch = %d, want %d", res.Epoch, n)
						}
					case GroupStoreOutage:
						if res.DegradedAdmits == 0 {
							t.Fatal("no degraded admissions — the blip was not exercised")
						}
						if res.Winner != "ctl-1" || res.Epoch != 2 {
							t.Fatalf("winner %s epoch %d, want ctl-1 epoch 2", res.Winner, res.Epoch)
						}
					case GroupAcquireRace:
						if res.Winner != "ctl-2" || res.Epoch != 2 {
							t.Fatalf("winner %s epoch %d, want ctl-2 epoch 2", res.Winner, res.Epoch)
						}
					}
				})
			}
		}
	}
}

// TestGroupDeterminism re-executes one run per scenario at N=4 and
// requires bit-for-bit identical traces.
func TestGroupDeterminism(t *testing.T) {
	for _, scenario := range []GroupScenario{GroupRollingKill, GroupStoreOutage, GroupAcquireRace} {
		scenario := scenario
		t.Run(string(scenario), func(t *testing.T) {
			t.Parallel()
			o := GroupOptions{Seed: 42, Scenario: scenario, Replicas: 4}
			assertSameTrace(t, RunGroup, o)
		})
	}
}
