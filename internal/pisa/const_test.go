package pisa

import (
	"errors"
	"strings"
	"testing"
)

// constL3Program is testL3Program with both tables' entries fixed by the
// program: an LPM (scan) table and an exact (hashed) one.
func constL3Program() *Program {
	prog := testL3Program()
	prog.Table("routes").ConstEntries = []Entry{
		{Key: []KeyMatch{PKey(0x0A000000, 8)}, Action: "set_nhop", Params: []uint64{7}},
		{Key: []KeyMatch{PKey(0x0A0A0000, 16)}, Action: "set_nhop", Params: []uint64{9}},
	}
	prog.Table("ports").ConstEntries = []Entry{
		{Key: []KeyMatch{EKey(7)}, Action: "to_port", Params: []uint64{3}},
		{Key: []KeyMatch{EKey(9)}, Action: "to_port", Params: []uint64{5}},
	}
	return prog
}

// TestConstEntries: const entries forward exactly as the same entries
// installed at run time, every switch of the compilation matches them, and
// the driver API refuses to insert, delete or clear them.
func TestConstEntries(t *testing.T) {
	c, err := Compile(constL3Program(), TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []*Switch{NewSwitchFromCompiled(c), NewSwitchFromCompiled(c)} {
		for _, tc := range []struct{ dst, port uint64 }{{0x0A000001, 3}, {0x0A0A0001, 5}} {
			res, err := sw.Process(Packet{Data: ethIPPacket(tc.dst, 64), Port: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Emissions) != 1 || res.Emissions[0].Port != int(tc.port) {
				t.Fatalf("dst %#x: emissions %+v, want one on port %d", tc.dst, res.Emissions, tc.port)
			}
		}
		for _, table := range []string{"routes", "ports"} {
			writes := map[string]error{
				"insert": sw.InsertEntry(table, Entry{Key: []KeyMatch{EKey(1)}, Action: "drop_pkt"}),
				"clear":  sw.ClearTable(table),
			}
			for op, err := range writes {
				if !errors.Is(err, ErrConstTable) {
					t.Errorf("%s %s: err %v, want ErrConstTable", op, table, err)
				}
			}
		}
	}
	// The refused writes left the shared entries as they were.
	res, err := NewSwitchFromCompiled(c).Process(Packet{Data: ethIPPacket(0x0A000001, 64), Port: 1})
	if err != nil || len(res.Emissions) != 1 || res.Emissions[0].Port != 3 {
		t.Fatalf("after refused writes: %+v, %v", res.Emissions, err)
	}
}

// TestConstEntriesCheckedAtCompile: a const entry the runtime API would
// refuse, or two with one exact key, fail the compile.
func TestConstEntriesCheckedAtCompile(t *testing.T) {
	for _, tc := range []struct {
		name  string
		entry Entry
		want  string
	}{
		{"action", Entry{Key: []KeyMatch{EKey(1)}, Action: "set_nhop", Params: []uint64{1}}, "not permitted"},
		{"params", Entry{Key: []KeyMatch{EKey(1)}, Action: "to_port"}, "params bound"},
		{"arity", Entry{Key: []KeyMatch{EKey(1), EKey(2)}, Action: "drop_pkt"}, "key parts"},
		{"repeat", Entry{Key: []KeyMatch{EKey(7)}, Action: "drop_pkt"}, "repeat a key"},
	} {
		prog := constL3Program()
		ports := prog.Table("ports")
		ports.ConstEntries = append(ports.ConstEntries, tc.entry)
		if _, err := Compile(prog, TofinoProfile()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: compile err %v, want %q", tc.name, err, tc.want)
		}
	}
	prog := constL3Program()
	prog.Table("ports").Size = 1
	if _, err := Compile(prog, TofinoProfile()); err == nil || !strings.Contains(err.Error(), "full") {
		t.Errorf("over size: compile err %v, want full", err)
	}
}
