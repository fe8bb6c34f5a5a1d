package pisa

import (
	"strings"
	"testing"
)

// argProgram sends a packet whose idx equals arg id out of arg port, after
// a table whose action writes its own parameter to the egress port: the
// action's parameter window must not reach the args behind it.
func argProgram(id, port Operand) *Program {
	return &Program{
		Name:         "args",
		Args:         []FieldDef{{Name: "id", Width: 8}, {Name: "port", Width: 16}},
		Headers:      []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "idx", Width: 8}}}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Actions: []*Action{{Name: "fwd", Params: []FieldDef{{Name: "p", Width: 16}}, Body: []Op{
			Forward(R(F(ParamHeader, "p"))),
		}}},
		Tables: []*Table{{Name: "t", Keys: []TableKey{{Field: F("h", "idx"), Match: MatchExact}},
			Size: 4, Actions: []string{"fwd"}, Default: "fwd", DefaultParams: []uint64{9}}},
		Control: []Op{
			Apply("t"),
			If(Eq(R(F("h", "idx")), id), []Op{Forward(port)}),
		},
	}
}

func egress(t *testing.T, sw *Switch, idx byte) int {
	t.Helper()
	res, err := sw.Process(Packet{Data: []byte{idx}, Port: 1})
	if err != nil || len(res.Emissions) != 1 {
		t.Fatalf("idx %d: %+v, %v", idx, res.Emissions, err)
	}
	return res.Emissions[0].Port
}

// TestArgsBindPerSwitch: two switches over one compilation read their own
// arg values, cut to the arg's width, and an unbound arg reads 0.
func TestArgsBindPerSwitch(t *testing.T) {
	prog := argProgram(R(F(ArgHeader, "id")), R(F(ArgHeader, "port")))
	if d := Dump(prog); !strings.Contains(d, "args { id:8; port:16 }\n") || !strings.Contains(d, "arg.port") {
		t.Errorf("dump does not show the args:\n%s", d)
	}
	c, err := Compile(prog, BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}
	a := NewSwitchFromCompiled(c, WithArg("id", 3), WithArg("port", 5))
	b := NewSwitchFromCompiled(c, WithArg("id", 0x104), WithArg("port", 6))
	unbound := NewSwitchFromCompiled(c, WithArg("port", 7))
	for _, tc := range []struct {
		sw        *Switch
		idx, port int
	}{{a, 3, 5}, {a, 4, 9}, {b, 4, 6}, {b, 3, 9}, {unbound, 0, 7}, {unbound, 3, 9}} {
		if got := egress(t, tc.sw, byte(tc.idx)); got != tc.port {
			t.Errorf("idx %d: port %d, want %d", tc.idx, got, tc.port)
		}
	}
}

// TestArgsAccountedAsConstants: a program reading args uses exactly the
// resources of the same program with constants in their place.
func TestArgsAccountedAsConstants(t *testing.T) {
	for _, p := range []Profile{BMv2Profile(), TofinoProfile()} {
		withArgs, err := Compile(argProgram(R(F(ArgHeader, "id")), R(F(ArgHeader, "port"))), p)
		if err != nil {
			t.Fatal(err)
		}
		withConsts, err := Compile(argProgram(C(3), C(5)), p)
		if err != nil {
			t.Fatal(err)
		}
		if withArgs.Usage != withConsts.Usage {
			t.Errorf("%s: args use %+v, constants %+v", p.Name, withArgs.Usage, withConsts.Usage)
		}
	}
}

// TestArgsRejected: an arg is read-only, must be declared once with a
// legal width, and binding an undeclared one panics.
func TestArgsRejected(t *testing.T) {
	for _, tc := range []struct {
		edit func(*Program)
		want string
	}{
		{func(p *Program) { p.Control = append(p.Control, Set(F(ArgHeader, "id"), C(1))) }, "cannot write to action parameter or arg arg.id"},
		{func(p *Program) { p.Control = append(p.Control, Forward(R(F(ArgHeader, "nope")))) }, `program has no arg "nope"`},
		{func(p *Program) { p.Args = append(p.Args, FieldDef{Name: "id", Width: 8}) }, `duplicate arg "id"`},
		{func(p *Program) { p.Args[1].Width = 65 }, "arg port: width 65 out of range"},
		{func(p *Program) { p.Headers[0].Name = ArgHeader }, `reserved header name "arg"`},
	} {
		prog := argProgram(R(F(ArgHeader, "id")), R(F(ArgHeader, "port")))
		tc.edit(prog)
		if _, err := Compile(prog, BMv2Profile()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %v, want %q", err, tc.want)
		}
	}
	c, err := Compile(argProgram(C(3), C(5)), BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), `program args has no arg "nope"`) {
			t.Errorf("binding an undeclared arg: recovered %v", r)
		}
	}()
	NewSwitchFromCompiled(c, WithArg("nope", 1))
}
