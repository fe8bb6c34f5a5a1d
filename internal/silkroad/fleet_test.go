package silkroad

import (
	"testing"

	"p4auth/internal/core"
)

// TestNamedSeededInstances deploys two balancers with distinct fleet
// names and seeds side by side and runs the full migration on each —
// the per-pod parameterization the fleet harness relies on.
func TestNamedSeededInstances(t *testing.T) {
	for i, name := range []string{"lb-p0", "lb-p1"} {
		p := DefaultParams(true)
		p.Name = name
		p.Seed = uint64(i)*0x1000 + 1
		if p.name() != name {
			t.Fatalf("name() = %q, want %q", p.name(), name)
		}
		s, err := New(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.BeginMigration(); err != nil {
			t.Fatalf("%s: begin: %v", name, err)
		}
		if pool, err := s.Packet(7, true); err != nil || pool != 0 {
			t.Fatalf("%s: transit conn: pool=%d err=%v", name, pool, err)
		}
		if err := s.FinishMigration(); err != nil {
			t.Fatalf("%s: finish: %v", name, err)
		}
		if pool, err := s.Packet(9, true); err != nil || pool != 1 {
			t.Fatalf("%s: post-migration conn: pool=%d err=%v", name, pool, err)
		}
		if s.TamperedWrites != 0 {
			t.Errorf("%s: clean run flagged %d writes", name, s.TamperedWrites)
		}
	}
}

// TestTamperedBeginMigrationDetected flips the values of the C-DP writes
// that OPEN the migration window (the complement of the clear
// suppressor). P4Auth must reject both writes, count them, and leave the
// data plane serving the old pool.
func TestTamperedBeginMigrationDetected(t *testing.T) {
	s, err := New(DefaultParams(true))
	if err != nil {
		t.Fatal(err)
	}
	err = s.Rewrite(core.MsgWriteReq, []string{RegMigrating, RegPoolVer}, func(_ uint32, v uint64) (uint64, bool) {
		return v ^ 1, true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginMigration(); err != nil {
		t.Fatalf("begin under tamper: %v", err)
	}
	if s.TamperedWrites != 2 {
		t.Fatalf("detected %d tampered writes, want 2", s.TamperedWrites)
	}
	// Both writes were rejected: the window never opened, version stays 0.
	if pool, err := s.Packet(5, true); err != nil || pool != 0 {
		t.Fatalf("conn after rejected migration: pool=%d err=%v", pool, err)
	}
	if len(s.Ctrl.Alerts()) == 0 {
		t.Error("no alerts recorded")
	}
}
