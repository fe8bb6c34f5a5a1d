package pisa

import (
	"strings"
	"testing"
)

func mustCompile(t *testing.T, prog *Program, profile Profile) *Compiled {
	t.Helper()
	c, err := Compile(prog, profile)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompileL3Program(t *testing.T) {
	c := mustCompile(t, testL3Program(), TofinoProfile())
	if c.Usage.Stages < 2 {
		t.Errorf("stages = %d, want >= 2 (two dependent tables)", c.Usage.Stages)
	}
	if c.Usage.Passes != 1 {
		t.Errorf("passes = %d, want 1", c.Usage.Passes)
	}
	if c.Usage.TCAMBlocks == 0 {
		t.Error("LPM table consumed no TCAM")
	}
	if c.Usage.SRAMBlocks == 0 {
		t.Error("exact table and register consumed no SRAM")
	}
	pct := c.Usage.Percent(c.Profile)
	if pct.PHV <= 0 || pct.PHV > 100 {
		t.Errorf("PHV%% = %f", pct.PHV)
	}
}

func TestCompileRejectsExternOnTofino(t *testing.T) {
	prog := &Program{
		Name:     "e",
		Metadata: []FieldDef{{Name: "d", Width: 32}},
		Control: []Op{
			KeyedHash(F(MetaHeader, "d"), HashHalfSipHash, C(1), C(2)),
		},
	}
	if _, err := Compile(prog, TofinoProfile()); err == nil {
		t.Fatal("HalfSipHash extern must be rejected on tofino")
	}
	if _, err := Compile(prog, BMv2Profile()); err != nil {
		t.Fatalf("HalfSipHash extern must compile on bmv2: %v", err)
	}
}

func TestCompileRejectsWideRotateOnTofino(t *testing.T) {
	prog := &Program{
		Name:     "r",
		Metadata: []FieldDef{{Name: "x", Width: 64}},
		Control:  []Op{Rotl(F(MetaHeader, "x"), R(F(MetaHeader, "x")), C(13))},
	}
	if _, err := Compile(prog, TofinoProfile()); err == nil {
		t.Fatal("64-bit rotate must be rejected on a 32-bit ALU")
	}
	if _, err := Compile(prog, BMv2Profile()); err != nil {
		t.Fatalf("64-bit rotate must compile on bmv2: %v", err)
	}
}

func TestCompileRejectsDoubleRegisterAccessOnTofino(t *testing.T) {
	prog := &Program{
		Name:      "rr",
		Metadata:  []FieldDef{{Name: "a", Width: 32}, {Name: "b", Width: 32}},
		Registers: []*RegisterDef{{Name: "st", Width: 32, Entries: 4}},
		Control: []Op{
			RegRead(F(MetaHeader, "a"), "st", C(0)),
			RegWrite("st", C(1), R(F(MetaHeader, "a"))),
		},
	}
	_, err := Compile(prog, TofinoProfile())
	if err == nil || !strings.Contains(err.Error(), "accessed 2 times") {
		t.Fatalf("want once-per-pass violation, got %v", err)
	}
	if _, err := Compile(prog, BMv2Profile()); err != nil {
		t.Fatalf("double access must compile on bmv2: %v", err)
	}
}

func TestCompileAllowsRegisterAccessInBothBranches(t *testing.T) {
	// If/else branches are mutually exclusive; one access per branch is a
	// single access per pass.
	prog := &Program{
		Name:      "branches",
		Metadata:  []FieldDef{{Name: "a", Width: 32}},
		Registers: []*RegisterDef{{Name: "st", Width: 32, Entries: 4}},
		Control: []Op{
			If(Eq(R(F(MetaHeader, "a")), C(0)),
				[]Op{RegRead(F(MetaHeader, "a"), "st", C(0))},
				[]Op{RegWrite("st", C(0), C(7))}),
		},
	}
	if _, err := Compile(prog, TofinoProfile()); err != nil {
		t.Fatalf("per-branch register access must be legal: %v", err)
	}
}

func TestCompileStageGrowthFromDependencies(t *testing.T) {
	// A chain of dependent ALU ops must occupy more stages than
	// independent ones.
	dep := &Program{
		Name: "dep",
		Metadata: []FieldDef{
			{Name: "a", Width: 32}, {Name: "b", Width: 32},
		},
		Control: []Op{
			Add(F(MetaHeader, "a"), R(F(MetaHeader, "a")), C(1)),
			Add(F(MetaHeader, "a"), R(F(MetaHeader, "a")), C(1)),
			Add(F(MetaHeader, "a"), R(F(MetaHeader, "a")), C(1)),
		},
	}
	indep := &Program{
		Name: "indep",
		Metadata: []FieldDef{
			{Name: "a", Width: 32}, {Name: "b", Width: 32}, {Name: "c", Width: 32},
		},
		Control: []Op{
			Add(F(MetaHeader, "a"), C(1), C(1)),
			Add(F(MetaHeader, "b"), C(1), C(1)),
			Add(F(MetaHeader, "c"), C(1), C(1)),
		},
	}
	cd := mustCompile(t, dep, TofinoProfile())
	ci := mustCompile(t, indep, TofinoProfile())
	if cd.Usage.Stages <= ci.Usage.Stages {
		t.Errorf("dependent chain %d stages, independent %d: want strict growth",
			cd.Usage.Stages, ci.Usage.Stages)
	}
}

func TestCompileHashUnitPressureForcesStages(t *testing.T) {
	// More hash calls than HashCallsPerStage must spill to later stages.
	mk := func(calls int) *Program {
		md := []FieldDef{}
		ops := []Op{}
		for i := 0; i < calls; i++ {
			name := "d" + string(rune('a'+i))
			md = append(md, FieldDef{Name: name, Width: 32})
			ops = append(ops, Hash(F(MetaHeader, name), HashCRC32, C(uint64(i))))
		}
		return &Program{Name: "hashes", Metadata: md, Control: ops}
	}
	c2 := mustCompile(t, mk(2), TofinoProfile())
	c6 := mustCompile(t, mk(6), TofinoProfile())
	if c6.Usage.Stages <= c2.Usage.Stages {
		t.Errorf("6 hashes = %d stages, 2 hashes = %d stages: want pressure growth",
			c6.Usage.Stages, c2.Usage.Stages)
	}
	if c6.Usage.HashCalls != 6 {
		t.Errorf("HashCalls = %d, want 6", c6.Usage.HashCalls)
	}
}

func TestCompilePassesFromStageOverflow(t *testing.T) {
	// A long dependent chain exceeding 12 stages needs recirculation.
	ops := []Op{}
	for i := 0; i < 30; i++ {
		ops = append(ops, Add(F(MetaHeader, "a"), R(F(MetaHeader, "a")), C(1)))
	}
	prog := &Program{
		Name:     "deep",
		Metadata: []FieldDef{{Name: "a", Width: 32}},
		Control:  ops,
	}
	c := mustCompile(t, prog, TofinoProfile())
	if c.Usage.Passes < 2 {
		t.Errorf("passes = %d, want >= 2 for a 30-deep chain on 12 stages", c.Usage.Passes)
	}
}

func TestCompileRejectsTooManyPasses(t *testing.T) {
	ops := []Op{}
	for i := 0; i < 100; i++ {
		ops = append(ops, Add(F(MetaHeader, "a"), R(F(MetaHeader, "a")), C(1)))
	}
	prog := &Program{
		Name:     "toodeep",
		Metadata: []FieldDef{{Name: "a", Width: 32}},
		Control:  ops,
	}
	if _, err := Compile(prog, TofinoProfile()); err == nil {
		t.Fatal("expected pass-budget rejection")
	}
}

func TestCompileRejectsPHVOverflow(t *testing.T) {
	md := make([]FieldDef, 200)
	for i := range md {
		md[i] = FieldDef{Name: "f" + string(rune('0'+i/10)) + string(rune('0'+i%10)), Width: 32}
	}
	prog := &Program{Name: "fat", Metadata: md}
	if _, err := Compile(prog, TofinoProfile()); err == nil {
		t.Fatal("expected PHV overflow rejection")
	}
	if _, err := Compile(prog, BMv2Profile()); err != nil {
		t.Fatalf("bmv2 should absorb the PHV: %v", err)
	}
}

func TestCompileValidationErrors(t *testing.T) {
	tests := []struct {
		name string
		prog *Program
	}{
		{"unknown field", &Program{Name: "x", Control: []Op{Set(F(MetaHeader, "ghost"), C(1))}}},
		{"unknown table", &Program{Name: "x", Control: []Op{Apply("ghost")}}},
		{"unknown register", &Program{Name: "x", Metadata: []FieldDef{{Name: "a", Width: 8}},
			Control: []Op{RegRead(F(MetaHeader, "a"), "ghost", C(0))}}},
		{"unknown header setvalid", &Program{Name: "x", Control: []Op{SetValid("ghost")}}},
		{"apply inside action", &Program{Name: "x",
			Actions: []*Action{{Name: "bad", Body: []Op{Apply("t")}}},
			Tables: []*Table{{Name: "t", Size: 1, Keys: []TableKey{{Field: F(MetaHeader, MetaIngressPort), Match: MatchExact}},
				Actions: []string{"bad"}}},
			Control: []Op{Apply("t")}}},
		{"write to param", &Program{Name: "x",
			Actions: []*Action{{Name: "bad", Params: []FieldDef{{Name: "p", Width: 8}},
				Body: []Op{Set(F(ParamHeader, "p"), C(1))}}},
			Tables: []*Table{{Name: "t", Size: 1, Keys: []TableKey{{Field: F(MetaHeader, MetaIngressPort), Match: MatchExact}},
				Actions: []string{"bad"}}},
			Control: []Op{Apply("t")}}},
		{"hash no inputs", &Program{Name: "x", Metadata: []FieldDef{{Name: "d", Width: 32}},
			Control: []Op{{Kind: OpHash, Dst: F(MetaHeader, "d"), Alg: HashCRC32}}}},
		{"param outside action", &Program{Name: "x", Metadata: []FieldDef{{Name: "d", Width: 32}},
			Control: []Op{Set(F(MetaHeader, "d"), R(F(ParamHeader, "p")))}}},
		{"dup table", &Program{Name: "x",
			Actions: []*Action{{Name: "n"}},
			Tables: []*Table{
				{Name: "t", Size: 1, Keys: []TableKey{{Field: F(MetaHeader, MetaIngressPort), Match: MatchExact}}, Actions: []string{"n"}},
				{Name: "t", Size: 1, Keys: []TableKey{{Field: F(MetaHeader, MetaIngressPort), Match: MatchExact}}, Actions: []string{"n"}},
			}}},
		{"parser missing start", &Program{Name: "x",
			Headers: []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "a", Width: 8}}}},
			Parser:  []ParserState{{Name: "notstart", Extract: "h"}}}},
		{"reserved header name", &Program{Name: "x",
			Headers: []*HeaderDef{{Name: MetaHeader, Fields: []FieldDef{{Name: "a", Width: 8}}}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Compile(tt.prog, BMv2Profile()); err == nil {
				t.Error("expected compile error")
			}
		})
	}
}

func TestUsagePercentZeroCapacity(t *testing.T) {
	u := Usage{PHVBits: 100}
	p := u.Percent(Profile{})
	if p.PHV != 0 {
		t.Error("zero capacity should report 0%, not +Inf")
	}
}

func TestProfilePacketCost(t *testing.T) {
	p := TofinoProfile()
	one := p.PacketCost(10, 1, 0)
	two := p.PacketCost(10, 2, 0)
	if two <= one {
		t.Error("an extra pass must cost more")
	}
	if p.PacketCost(10, 0, 0) != one {
		t.Error("passes<1 should clamp to 1")
	}
	b := BMv2Profile()
	if b.PacketCost(10, 1, 1000) <= b.PacketCost(10, 1, 0) {
		t.Error("payload bytes must cost on the software target")
	}
}

func TestDumpRendersEveryConstruct(t *testing.T) {
	out := Dump(testL3Program())
	for _, want := range []string{
		"program test_l3",
		"header eth", "header ip",
		"metadata {",
		"state start extract(eth)",
		"register pkt_count: 8 x 32 bits",
		"action set_nhop(nhop:16)",
		"table routes", "key = {", "ip.dst:lpm",
		"control ingress",
		"if (ip.isValid())",
		"apply(routes)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q", want)
		}
	}
	// Deterministic.
	if out != Dump(testL3Program()) {
		t.Error("dump is not deterministic")
	}
}

func TestDumpOpsCoverage(t *testing.T) {
	prog := &Program{
		Name:     "opsdump",
		Metadata: []FieldDef{{Name: "a", Width: 32}, {Name: "d", Width: 32}},
		Registers: []*RegisterDef{
			{Name: "r", Width: 32, Entries: 2},
		},
		EgressControl: []Op{Set(F(MetaHeader, "a"), C(1))},
		Control: []Op{
			Hash(F(MetaHeader, "d"), HashCRC32, R(F(MetaHeader, "a"))),
			KeyedHash(F(MetaHeader, "d"), HashCRC32, C(5), R(F(MetaHeader, "a"))),
			RegRead(F(MetaHeader, "a"), "r", C(0)),
			RegWrite("r", C(1), C(9)),
			RegRMW(F(MetaHeader, "a"), "r", C(0), RMWMax, C(3)),
			Random(F(MetaHeader, "a")),
			Xor(F(MetaHeader, "a"), R(F(MetaHeader, "a")), C(1)),
			Rotl(F(MetaHeader, "a"), R(F(MetaHeader, "a")), C(5)),
			If(NotValid("x"), nil),
		},
		Headers: []*HeaderDef{{Name: "x", Fields: []FieldDef{{Name: "y", Width: 8}}}},
	}
	out := Dump(prog)
	for _, want := range []string{
		"crc32(", "key=0x5", "= r[0x0]", "r[0x1] = 0x9", "rmw r[0x0] max= 0x3",
		"random()", "^", "<<<", "!x.isValid()", "control egress",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q in:\n%s", want, out)
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	a, err := Compile(testL3Program(), TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(testL3Program(), TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	if a.Usage != b.Usage {
		t.Errorf("compilation not deterministic: %+v vs %+v", a.Usage, b.Usage)
	}
}

// The interpreter addresses intrinsic metadata by fixed offsets from
// Compiled.metaBase; they must follow intrinsicMetadata()'s order.
func TestIntrinsicSlotOrder(t *testing.T) {
	want := [numIntrinsic]string{
		mIngressPort: MetaIngressPort, mEgressPort: MetaEgressPort, mDrop: MetaDrop,
		mToCPU: MetaToCPU, mRecirc: MetaRecirc, mMcastGroup: MetaMcastGroup,
		mPass: MetaPass, mTimestamp: MetaTimestamp, mPktLen: MetaPktLen,
	}
	fields := intrinsicMetadata()
	if len(fields) != numIntrinsic {
		t.Fatalf("%d intrinsic fields, %d slot constants", len(fields), numIntrinsic)
	}
	for i, f := range fields {
		if f.Name != want[i] {
			t.Errorf("intrinsic slot %d is %q, the interpreter reads it as %q", i, f.Name, want[i])
		}
	}
}
