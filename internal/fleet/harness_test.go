package fleet

import "testing"

// TestConformanceAttack is the harness's core claim, table-driven over
// all eight protected apps at k=4: with protection on, an active
// attacker gets zero forged operations applied, the tampering is
// detected, and the app survives; with protection off, the same attack
// measurably corrupts the app (forged operations take effect).
func TestConformanceAttack(t *testing.T) {
	o := DefaultOptions()
	for _, app := range Apps() {
		app := app
		t.Run(app, func(t *testing.T) {
			on, _, err := RunCell(app, FaultAttack, true, o)
			if err != nil {
				t.Fatalf("protected run: %v", err)
			}
			if on.ForgedApplied != 0 {
				t.Errorf("protected: %d forged ops applied, want 0 (%s)", on.ForgedApplied, on.Note)
			}
			if on.Detected == 0 {
				t.Error("protected: attack went undetected")
			}
			if !on.Survived {
				t.Errorf("protected: app did not survive (score=%.2f)", on.Score)
			}

			off, _, err := RunCell(app, FaultAttack, false, o)
			if err != nil {
				t.Fatalf("unprotected run: %v", err)
			}
			if off.ForgedApplied == 0 {
				t.Error("unprotected: attack applied no forged ops — the attack model is vacuous")
			}
			if off.Survived {
				t.Errorf("unprotected: app survived the attack (score=%.2f forged=%d)",
					off.Score, off.ForgedApplied)
			}
		})
	}
}

// TestFabricFaultRecovery runs the protected fabric through each
// non-attack fault: delivery must stay above the fault's floor, and the
// recovery paths (controller re-registration + RecoverAll, warm switch
// reboot + ReviveSwitch) must succeed.
func TestFabricFaultRecovery(t *testing.T) {
	o := DefaultOptions()
	for _, fault := range []string{
		FaultFlap, FaultPartition, FaultCtrlKill, FaultSwCrash,
		FaultWANPartition, FaultGlobalKill,
	} {
		fault := fault
		t.Run(fault, func(t *testing.T) {
			cell, _, err := RunCell("hula", fault, true, o)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !cell.Survived {
				t.Errorf("fabric did not survive %s: score=%.2f note=%q", fault, cell.Score, cell.Note)
			}
			if cell.Score < fabricFloor(fault) {
				t.Errorf("score %.3f below %s floor %.2f", cell.Score, fault, fabricFloor(fault))
			}
			if cell.Sent == 0 || cell.Delivered == 0 {
				t.Errorf("no load flowed: sent=%d delivered=%d", cell.Sent, cell.Delivered)
			}
		})
	}
}

func TestRunCellValidation(t *testing.T) {
	o := DefaultOptions()
	o.K = 3
	if _, _, err := RunCell("hula", FaultNone, true, o); err == nil {
		t.Error("accepted odd arity")
	}
	if _, _, err := RunCell("netcache", FaultFlap, true, DefaultOptions()); err == nil {
		t.Error("accepted a fabric-only fault for a standalone app")
	}
	if _, _, err := RunCell("nosuch", FaultNone, true, DefaultOptions()); err == nil {
		t.Error("accepted an unknown app")
	}
}

func TestFaultsForCoversMatrix(t *testing.T) {
	if len(Apps()) != 8 {
		t.Fatalf("Apps() lists %d apps, want 8", len(Apps()))
	}
	if got := len(FaultsFor("hula")); got != 9 {
		t.Errorf("hula runs %d faults, want 9", got)
	}
	for _, app := range Apps()[1:] {
		for _, f := range FaultsFor(app) {
			if f == FaultFlap || f == FaultPartition || f == FaultSwCrash ||
				f == FaultWANPartition || f == FaultGlobalKill {
				t.Errorf("standalone app %s claims fabric fault %s", app, f)
			}
		}
	}
}
