package chaos

import (
	"fmt"
	"testing"
)

// TestHAShort is the fixed-seed HA subset of the chaos gate in
// scripts/check.sh (make chaos): both failure modes — active killed mid-rollover,
// split-brain lease lapse — against a 64-switch sharded fleet across two
// seeds each. Every run must promote the standby warm within the
// failover budget, with zero forged or stale-fenced writes applied and
// an exactly reconciled audit trail.
func TestHAShort(t *testing.T) {
	for _, scenario := range []HAScenario{HAKill, HASplitBrain} {
		for _, seed := range []uint64{0xD1, 0xE2} {
			scenario, seed := scenario, seed
			t.Run(fmt.Sprintf("%s/seed=%#x", scenario, seed), func(t *testing.T) {
				t.Parallel()
				res := runClean(t, RunHA, HAOptions{Seed: seed, Scenario: scenario})
				if res.Switches < 64 {
					t.Fatalf("fleet size %d, want >= 64", res.Switches)
				}
				if !res.WarmAll || res.Epoch != 2 {
					t.Fatalf("takeover not clean: warmAll=%v epoch=%d", res.WarmAll, res.Epoch)
				}
				if res.FencedAttempts == 0 || res.Landed == 0 {
					t.Fatalf("scenario did not bite: fenced=%d landed=%d",
						res.FencedAttempts, res.Landed)
				}
			})
		}
	}
}

// TestHADeterminism re-executes one run per scenario and requires
// bit-for-bit identical traces: a failover schedule that cannot be
// replayed cannot be debugged.
func TestHADeterminism(t *testing.T) {
	for _, scenario := range []HAScenario{HAKill, HASplitBrain} {
		scenario := scenario
		t.Run(string(scenario), func(t *testing.T) {
			t.Parallel()
			o := HAOptions{Seed: 42, Scenario: scenario}
			assertSameTrace(t, RunHA, o)
		})
	}
}
