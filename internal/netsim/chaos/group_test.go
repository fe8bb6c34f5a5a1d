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
	for _, sc := range groupScenarios {
		for _, n := range []int{3, 5} {
			for _, seed := range []uint64{0xA1, 0xB2} {
				o := GroupOptions{Seed: seed, Scenario: sc.name, Replicas: n}
				t.Run(fmt.Sprintf("%s/n=%d/seed=%#x", sc.name, n, seed), func(t *testing.T) {
					t.Parallel()
					checkGroupRun(t, o)
				})
			}
		}
	}
}

// TestGroupDeterminism replays every scenario at N=4, seed 42 (the
// group/seed42/n4 rows of the pinned-run table).
func TestGroupDeterminism(t *testing.T) {
	for _, sc := range groupScenarios {
		t.Run(string(sc.name), func(t *testing.T) {
			t.Parallel()
			assertSameTrace(t, RunGroup, GroupOptions{Seed: 42, Scenario: sc.name, Replicas: 4})
		})
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

// TestHADeterminism replays the pair's active kill and split-brain at
// seed 42 (the group/seed42/n2 rows of the pinned-run table).
func TestHADeterminism(t *testing.T) {
	for _, sc := range pairScenarios[:2] {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			assertSameTrace(t, RunGroup, GroupOptions{Seed: 42, Scenario: sc.scenario, Replicas: 2})
		})
	}
}
