package pisa_test

import (
	"reflect"
	"testing"

	"p4auth/internal/p4rt"
	"p4auth/internal/pisa"
)

// routeProgram declares a register, a runtime table and a const table.
func routeProgram() *pisa.Program {
	port := pisa.F("h", "port")
	return &pisa.Program{
		Name:         "route",
		Headers:      []*pisa.HeaderDef{{Name: "h", Fields: []pisa.FieldDef{{Name: "port", Width: 16}}}},
		Parser:       []pisa.ParserState{{Name: pisa.ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers:    []*pisa.RegisterDef{{Name: "cnt", Width: 32, Entries: 4}},
		Actions: []*pisa.Action{
			{Name: "fwd", Params: []pisa.FieldDef{{Name: "port", Width: 16}}, Body: []pisa.Op{
				pisa.Forward(pisa.R(pisa.F(pisa.ParamHeader, "port"))),
			}},
			{Name: "drop_pkt", Body: []pisa.Op{pisa.Drop()}},
		},
		Tables: []*pisa.Table{
			{Name: "route", Keys: []pisa.TableKey{{Field: port, Match: pisa.MatchExact}}, Size: 2,
				Actions: []string{"fwd", "drop_pkt"}},
			{Name: "acl", Keys: []pisa.TableKey{{Field: port, Match: pisa.MatchExact}}, Size: 2,
				Actions: []string{"drop_pkt"}, ConstEntries: []pisa.Entry{{Key: []pisa.KeyMatch{pisa.EKey(9)}, Action: "drop_pkt"}}},
		},
		Control: []pisa.Op{pisa.Apply("acl"), pisa.Apply("route")},
	}
}

// TestCompilationOwnsItsInterface: a caller editing its Program, its
// RegisterDef and its Tables after CompileOnce reaches neither the
// compilation, nor its p4info, nor a later CompileOnce hit, which stays
// deeply equal to a fresh compile of a fresh build and keeps the driver
// contract it was compiled with.
func TestCompilationOwnsItsInterface(t *testing.T) {
	key := new(int)
	var prog *pisa.Program
	c, err := pisa.CompileOnce(key, pisa.BMv2Profile(), func() (*pisa.Program, error) {
		prog = routeProgram()
		return prog, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	info := p4rt.InfoOf(c)

	prog.Name = "edited"
	*prog.Registers[0] = pisa.RegisterDef{Name: "edited", Width: 1, Entries: 1}
	route, acl := prog.Tables[0], prog.Tables[1]
	route.Name, route.Size, route.Actions[0] = "edited", 1, "drop_pkt"
	route.Keys = append(route.Keys, route.Keys[0])
	acl.ConstEntries[0].Key[0] = pisa.EKey(1)

	hit, err := pisa.CompileOnce(key, pisa.BMv2Profile(), func() (*pisa.Program, error) {
		t.Error("a cache hit built the program again")
		return routeProgram(), nil
	})
	if err != nil || hit != c || p4rt.InfoOf(hit) != info {
		t.Fatalf("later CompileOnce: %p (info %p), %v; want %p (info %p)", hit, p4rt.InfoOf(hit), err, c, info)
	}
	fresh, err := pisa.Compile(routeProgram(), pisa.BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info, p4rt.InfoOf(fresh)) || !reflect.DeepEqual(c, fresh) {
		t.Error("the edited source reached the compilation or its p4info")
	}
	if cnt, err := info.RegisterByName("cnt"); c.Name() != "route" || err != nil || cnt.Entries != 4 {
		t.Errorf("name %q, register cnt %+v %v; want route and 4 entries", c.Name(), cnt, err)
	}

	sw := pisa.NewSwitchFromCompiled(c)
	for _, port := range []uint64{1, 2} {
		if err := sw.InsertEntry("route", pisa.Entry{Key: []pisa.KeyMatch{pisa.EKey(port)}, Action: "fwd", Params: []uint64{port}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.InsertEntry("route", pisa.Entry{Key: []pisa.KeyMatch{pisa.EKey(3)}, Action: "drop_pkt"}); err == nil {
		t.Error("a third entry fit the 2-entry table")
	}
	for port, want := range map[byte]int{1: 1, 9: 0} { // acl drops port 9
		res, err := sw.Process(pisa.Packet{Data: []byte{0, port}, Port: 1})
		if err != nil || len(res.Emissions) != want {
			t.Errorf("port %d: %d emissions, %v; want %d", port, len(res.Emissions), err, want)
		}
	}
}
