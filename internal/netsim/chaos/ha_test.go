package chaos

import (
	"fmt"
	"testing"
)

// pairScenarios are the group scenarios valid at N=2, named as the pair
// knows them: a rolling kill of two replicas is the active killed
// mid-rollover and one promotion.
var pairScenarios = []struct {
	name     string
	scenario GroupScenario
}{
	{"kill-active", GroupRollingKill},
	{"split-brain", GroupSplitBrain},
	{"store-outage", GroupStoreOutage},
}

// TestHAShort is the fixed-seed pair subset of the chaos gate in
// scripts/check.sh (make chaos): the group harness at N=2 against a
// 64-switch sharded fleet, every scenario valid there, two seeds each.
// Every run must promote the standby warm at epoch 2 within the failover
// budget, with zero forged or stale-fenced writes applied and an exactly
// reconciled audit trail.
func TestHAShort(t *testing.T) {
	for _, sc := range pairScenarios {
		for _, seed := range []uint64{0xD1, 0xE2} {
			o := GroupOptions{Seed: seed, Scenario: sc.scenario, Replicas: 2, Switches: 64}
			t.Run(fmt.Sprintf("%s/seed=%#x", sc.name, seed), func(t *testing.T) {
				t.Parallel()
				if res := checkGroupRun(t, o); res.Switches < 64 {
					t.Fatalf("fleet size %d, want >= 64", res.Switches)
				}
			})
		}
	}
}

// TestHADeterminism re-executes one pair run per failure mode and
// requires bit-for-bit identical traces: a failover schedule that cannot
// be replayed cannot be debugged.
func TestHADeterminism(t *testing.T) {
	for _, sc := range pairScenarios[:2] {
		o := GroupOptions{Seed: 42, Scenario: sc.scenario, Replicas: 2}
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			assertSameTrace(t, RunGroup, o)
		})
	}
}
