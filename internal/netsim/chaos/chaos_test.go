package chaos

import (
	"fmt"
	"testing"
)

// runFaulted is runClean plus the requirement that the run injected its
// fault.
func runFaulted(t *testing.T, o Options) *Result {
	t.Helper()
	res := runClean(t, Run, o)
	if res.CtlKills+res.SwCrashes == 0 {
		t.Fatal("run injected no fault")
	}
	return res
}

// sweep runs the full victim x crash-point x seed grid for one scenario.
// Each scenario accumulates at least 20 controller kills and 20 switch
// crashes across the grid (5 seeds x 2 crash points x 2 warm modes).
func sweep(t *testing.T, scenario Scenario, crashAts []int) {
	ctlKills, swCrashes := 0, 0
	for _, victim := range []Victim{KillController, CrashSwitch} {
		for _, warm := range []bool{true, false} {
			for _, at := range crashAts {
				for seed := uint64(1); seed <= 5; seed++ {
					o := Options{
						Seed: seed, Scenario: scenario, Victim: victim,
						CrashAt: at, WarmDevice: warm,
					}
					t.Run(fmt.Sprintf("%s/warm=%v/at=%d/seed=%d", victim, warm, at, seed),
						func(t *testing.T) {
							res := runFaulted(t, o)
							ctlKills += res.CtlKills
							swCrashes += res.SwCrashes
						})
				}
			}
		}
	}
	if ctlKills < 20 || swCrashes < 20 {
		t.Fatalf("scenario %s: only %d controller kills and %d switch crashes (want >= 20 each)",
			scenario, ctlKills, swCrashes)
	}
}

func TestChaosMidRollover(t *testing.T) {
	sweep(t, MidRollover, []int{1, 3})
}

func TestChaosMidRegisterWrite(t *testing.T) {
	sweep(t, MidRegisterWrite, []int{1, 2})
}

func TestChaosMidPortKeyInit(t *testing.T) {
	sweep(t, MidPortKeyInit, []int{2, 5})
}

// TestChaosBackToBack kills the controller mid-operation, recovers, then
// crashes a switch mid-operation and recovers again — the compound
// failure, for every scenario.
func TestChaosBackToBack(t *testing.T) {
	count := 0
	for _, scenario := range []Scenario{MidRollover, MidRegisterWrite, MidPortKeyInit} {
		for _, warm := range []bool{true, false} {
			for seed := uint64(10); seed <= 13; seed++ {
				o := Options{
					Seed: seed, Scenario: scenario, Victim: BackToBack,
					CrashAt: 2, WarmDevice: warm,
				}
				t.Run(fmt.Sprintf("%s/warm=%v/seed=%d", scenario, warm, seed),
					func(t *testing.T) {
						res := runFaulted(t, o)
						if res.CtlKills != 1 || res.SwCrashes != 1 {
							t.Fatalf("want 1 kill + 1 crash, got %d + %d",
								res.CtlKills, res.SwCrashes)
						}
						count++
					})
			}
		}
	}
	if count < 20 {
		t.Fatalf("only %d back-to-back runs", count)
	}
}

// TestChaosDeterminism re-executes representative runs and requires
// bit-for-bit identical traces: a chaos schedule that cannot be replayed
// cannot be debugged.
func TestChaosDeterminism(t *testing.T) {
	for _, scenario := range []Scenario{MidRollover, MidRegisterWrite, MidPortKeyInit} {
		for _, victim := range []Victim{KillController, CrashSwitch, BackToBack} {
			o := Options{
				Seed: 42, Scenario: scenario, Victim: victim,
				CrashAt: 2, WarmDevice: true,
			}
			t.Run(fmt.Sprintf("%s/%s", scenario, victim), func(t *testing.T) {
				assertSameTrace(t, Run, o)
			})
		}
	}
}

// TestChaosShort is the fixed-seed smoke subset wired into scripts/check.sh:
// one run per scenario/victim pair, fast enough for every CI invocation.
func TestChaosShort(t *testing.T) {
	for _, scenario := range []Scenario{MidRollover, MidRegisterWrite, MidPortKeyInit} {
		for _, victim := range []Victim{KillController, CrashSwitch} {
			o := Options{
				Seed: 7, Scenario: scenario, Victim: victim,
				CrashAt: 2, WarmDevice: true,
			}
			t.Run(fmt.Sprintf("%s/%s", scenario, victim), func(t *testing.T) {
				runFaulted(t, o)
			})
		}
	}
}
