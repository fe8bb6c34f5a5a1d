package p4rt

import (
	"testing"

	"p4auth/internal/pisa"
)

// testInfo is the p4info of a fresh compilation of a program that
// declares three registers.
func testInfo(t *testing.T) *P4Info {
	t.Helper()
	c, err := pisa.Compile(&pisa.Program{
		Name: "p",
		Registers: []*pisa.RegisterDef{
			{Name: "lat_path1", Width: 32, Entries: 16},
			{Name: "lat_path2", Width: 32, Entries: 16},
			{Name: "keys", Width: 64, Entries: 33},
		},
	}, pisa.TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	return InfoOf(c)
}

func TestInfoOf(t *testing.T) {
	info := testInfo(t)
	if len(info.Registers) != 3 {
		t.Fatalf("got %d registers", len(info.Registers))
	}
	ri, err := info.RegisterByName("keys")
	if err != nil {
		t.Fatal(err)
	}
	if ri.Width != 64 || ri.Entries != 33 {
		t.Errorf("keys info = %+v", ri)
	}
	back, err := info.RegisterByID(ri.ID)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "keys" {
		t.Errorf("round trip by id gave %q", back.Name)
	}
	if _, err := info.RegisterByID(0xdead); err == nil {
		t.Error("expected unknown-id error")
	}
	if _, err := info.RegisterByName("ghost"); err == nil {
		t.Error("expected unknown-name error")
	}
}

func TestInfoIDsDeterministic(t *testing.T) {
	a, b := testInfo(t), testInfo(t)
	for i := range a.Registers {
		if a.Registers[i].ID != b.Registers[i].ID {
			t.Fatal("register IDs are not deterministic")
		}
	}
	seen := map[uint32]bool{}
	for _, r := range a.Registers {
		if seen[r.ID] {
			t.Fatal("duplicate register ID")
		}
		seen[r.ID] = true
	}
}
