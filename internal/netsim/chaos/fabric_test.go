package chaos

import (
	"fmt"
	"testing"
)

// TestFabricShort is the fixed-seed fabric subset of the chaos gate in
// scripts/check.sh: every scenario — flap storm, two-way partition,
// one-sided rollover — across three seeds must reconverge to
// all-links-Healthy with paired port keys and a fully reconciled audit
// trail, with the forger on-path for the whole degraded window.
func TestFabricShort(t *testing.T) {
	for _, scenario := range []FabricScenario{FabricFlap, FabricPartition, FabricSkew} {
		for _, seed := range []uint64{0xA1, 0xB2, 0xC3} {
			scenario, seed := scenario, seed
			t.Run(fmt.Sprintf("%s/seed=%#x", scenario, seed), func(t *testing.T) {
				t.Parallel()
				res := runClean(t, RunFabric, FabricOptions{Seed: seed, Scenario: scenario})
				if res.Quarantines == 0 || res.Repairs == 0 {
					t.Fatalf("scenario did not bite: quarantines=%d repairs=%d",
						res.Quarantines, res.Repairs)
				}
			})
		}
	}
}

// TestFabricDeterminism re-executes one run per scenario and requires
// bit-for-bit identical traces: a fault schedule that cannot be replayed
// cannot be debugged.
func TestFabricDeterminism(t *testing.T) {
	for _, scenario := range []FabricScenario{FabricFlap, FabricPartition, FabricSkew} {
		scenario := scenario
		t.Run(string(scenario), func(t *testing.T) {
			t.Parallel()
			o := FabricOptions{Seed: 42, Scenario: scenario}
			assertSameTrace(t, RunFabric, o)
		})
	}
}
