package pisa

import (
	"hash/crc32"
	"testing"

	"p4auth/internal/crypto"
)

// testL3Program is a toy destination-based forwarder: an "eth"-like header
// selecting an "ip" header, an LPM route table, an exact port table, and a
// packet counter register.
func testL3Program() *Program {
	return &Program{
		Name: "test_l3",
		Headers: []*HeaderDef{
			{Name: "eth", Fields: []FieldDef{
				{Name: "dst", Width: 16},
				{Name: "src", Width: 16},
				{Name: "etype", Width: 16},
			}},
			{Name: "ip", Fields: []FieldDef{
				{Name: "dst", Width: 32},
				{Name: "ttl", Width: 8},
				{Name: "proto", Width: 8},
			}},
		},
		Metadata: []FieldDef{
			{Name: "nhop", Width: 16},
		},
		Parser: []ParserState{
			{Name: ParserStart, Extract: "eth", Select: F("eth", "etype"),
				Transitions: map[uint64]string{0x0800: "ip"}},
			{Name: "ip", Extract: "ip"},
		},
		DeparseOrder: []string{"eth", "ip"},
		Actions: []*Action{
			{Name: "set_nhop", Params: []FieldDef{{Name: "nhop", Width: 16}}, Body: []Op{
				Set(F(MetaHeader, "nhop"), R(F(ParamHeader, "nhop"))),
				Sub(F("ip", "ttl"), R(F("ip", "ttl")), C(1)),
			}},
			{Name: "to_port", Params: []FieldDef{{Name: "port", Width: 16}}, Body: []Op{
				Forward(R(F(ParamHeader, "port"))),
			}},
			{Name: "drop_pkt", Body: []Op{Drop()}},
		},
		Tables: []*Table{
			{Name: "routes", Keys: []TableKey{{Field: F("ip", "dst"), Match: MatchLPM}},
				Size: 1024, Actions: []string{"set_nhop", "drop_pkt"}, Default: "drop_pkt"},
			{Name: "ports", Keys: []TableKey{{Field: F(MetaHeader, "nhop"), Match: MatchExact}},
				Size: 64, Actions: []string{"to_port", "drop_pkt"}, Default: "drop_pkt"},
		},
		Registers: []*RegisterDef{
			{Name: "pkt_count", Width: 32, Entries: 8},
		},
		Control: []Op{
			If(Valid("ip"), []Op{
				Apply("routes"),
				Apply("ports"),
				RegRead(F(MetaHeader, "nhop"), "pkt_count", C(0)), // scratch reuse after ports
			}, []Op{Drop()}),
		},
	}
}

func ethIPPacket(dst uint64, ttl uint64) []byte {
	eth := &HeaderDef{Name: "eth", Fields: []FieldDef{
		{Name: "dst", Width: 16}, {Name: "src", Width: 16}, {Name: "etype", Width: 16}}}
	ip := &HeaderDef{Name: "ip", Fields: []FieldDef{
		{Name: "dst", Width: 32}, {Name: "ttl", Width: 8}, {Name: "proto", Width: 8}}}
	e, _ := PackHeader(eth, []uint64{0xAAAA, 0xBBBB, 0x0800})
	i, _ := PackHeader(ip, []uint64{dst, ttl, 6})
	return append(append(e, i...), []byte("payload!")...)
}

func newTestSwitch(t *testing.T, profile Profile) *Switch {
	t.Helper()
	sw, err := NewSwitch(testL3Program(), profile)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.InsertEntry("routes", Entry{
		Key: []KeyMatch{PKey(0x0A000000, 8)}, Action: "set_nhop", Params: []uint64{7},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.InsertEntry("routes", Entry{
		Key: []KeyMatch{PKey(0x0A0A0000, 16)}, Action: "set_nhop", Params: []uint64{9},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.InsertEntry("ports", Entry{
		Key: []KeyMatch{EKey(7)}, Action: "to_port", Params: []uint64{3},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.InsertEntry("ports", Entry{
		Key: []KeyMatch{EKey(9)}, Action: "to_port", Params: []uint64{5},
	}); err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestSwitchForwardsViaLPMAndExact(t *testing.T) {
	for _, profile := range []Profile{TofinoProfile(), BMv2Profile()} {
		t.Run(profile.Name, func(t *testing.T) {
			sw := newTestSwitch(t, profile)
			res, err := sw.Process(Packet{Data: ethIPPacket(0x0A000001, 64), Port: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Emissions) != 1 || res.Emissions[0].Port != 3 {
				t.Fatalf("emissions = %+v, want one on port 3", res.Emissions)
			}
			// Longest prefix wins.
			res, err = sw.Process(Packet{Data: ethIPPacket(0x0A0A0001, 64), Port: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Emissions) != 1 || res.Emissions[0].Port != 5 {
				t.Fatalf("emissions = %+v, want one on port 5 (longest prefix)", res.Emissions)
			}
		})
	}
}

func TestSwitchTTLDecrementOnWire(t *testing.T) {
	sw := newTestSwitch(t, TofinoProfile())
	res, err := sw.Process(Packet{Data: ethIPPacket(0x0A000001, 64), Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Emissions[0].Data
	// eth is 6 bytes; ip dst is 4 bytes; ttl follows.
	if ttl := out[6+4]; ttl != 63 {
		t.Errorf("ttl on wire = %d, want 63", ttl)
	}
	// Payload preserved.
	if string(out[len(out)-8:]) != "payload!" {
		t.Errorf("payload corrupted: %q", out[len(out)-8:])
	}
}

func TestSwitchDefaultActionDrops(t *testing.T) {
	sw := newTestSwitch(t, TofinoProfile())
	res, err := sw.Process(Packet{Data: ethIPPacket(0x0B000001, 64), Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emissions) != 0 {
		t.Fatalf("unrouted packet emitted: %+v", res.Emissions)
	}
	if sw.Counter("dropped") != 1 {
		t.Errorf("dropped counter = %d, want 1", sw.Counter("dropped"))
	}
}

func TestSwitchNonIPDropped(t *testing.T) {
	sw := newTestSwitch(t, TofinoProfile())
	eth := &HeaderDef{Name: "eth", Fields: []FieldDef{
		{Name: "dst", Width: 16}, {Name: "src", Width: 16}, {Name: "etype", Width: 16}}}
	e, _ := PackHeader(eth, []uint64{1, 2, 0x0806})
	res, err := sw.Process(Packet{Data: e, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emissions) != 0 {
		t.Fatalf("non-IP packet emitted: %+v", res.Emissions)
	}
}

func TestSwitchParseErrorShortPacket(t *testing.T) {
	sw := newTestSwitch(t, TofinoProfile())
	if _, err := sw.Process(Packet{Data: []byte{1, 2}, Port: 1}); err == nil {
		t.Fatal("expected parse error")
	}
	if sw.Counter("parse_error") != 1 {
		t.Error("parse_error counter not bumped")
	}
}

func TestSwitchDriverRegisterAccess(t *testing.T) {
	sw := newTestSwitch(t, TofinoProfile())
	if err := sw.RegisterWrite("pkt_count", 3, 0x1_0000_0001); err != nil {
		t.Fatal(err)
	}
	v, err := sw.RegisterRead("pkt_count", 3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 { // 32-bit register masks the write
		t.Errorf("got %#x, want width-masked 1", v)
	}
	if _, err := sw.RegisterRead("pkt_count", 99); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := sw.RegisterRead("nope", 0); err == nil {
		t.Error("expected unknown-register error")
	}
}

func TestSwitchTableRuntimeErrors(t *testing.T) {
	sw := newTestSwitch(t, TofinoProfile())
	if err := sw.InsertEntry("nope", Entry{}); err == nil {
		t.Error("expected unknown-table error")
	}
	if err := sw.InsertEntry("ports", Entry{Key: []KeyMatch{EKey(1)}, Action: "set_nhop", Params: []uint64{1}}); err == nil {
		t.Error("expected not-permitted action error")
	}
	if err := sw.InsertEntry("ports", Entry{Key: []KeyMatch{EKey(1), EKey(2)}, Action: "to_port", Params: []uint64{1}}); err == nil {
		t.Error("expected key-arity error")
	}
}

func TestSwitchTableCapacity(t *testing.T) {
	prog := testL3Program()
	prog.Tables[1].Size = 2
	sw, err := NewSwitch(prog, TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := sw.InsertEntry("ports", Entry{Key: []KeyMatch{EKey(uint64(i))}, Action: "to_port", Params: []uint64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.InsertEntry("ports", Entry{Key: []KeyMatch{EKey(5)}, Action: "to_port", Params: []uint64{1}}); err == nil {
		t.Error("expected table-full error")
	}
}

func TestSwitchClearTable(t *testing.T) {
	sw := newTestSwitch(t, TofinoProfile())
	if err := sw.ClearTable("routes"); err != nil {
		t.Fatal(err)
	}
	res, err := sw.Process(Packet{Data: ethIPPacket(0x0A000001, 64), Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emissions) != 0 {
		t.Error("cleared table still matched")
	}
}

func TestSwitchMulticast(t *testing.T) {
	prog := &Program{
		Name: "mcast",
		Headers: []*HeaderDef{
			{Name: "h", Fields: []FieldDef{{Name: "x", Width: 8}}},
		},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Control:      []Op{Multicast(C(7))},
	}
	sw, err := NewSwitch(prog, TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	sw.SetMulticastGroup(7, []int{2, 3, 4})
	res, err := sw.Process(Packet{Data: []byte{0x55}, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emissions) != 3 {
		t.Fatalf("got %d emissions, want 3", len(res.Emissions))
	}
	ports := map[int]bool{}
	for _, e := range res.Emissions {
		ports[e.Port] = true
		if e.Data[0] != 0x55 {
			t.Errorf("replica data corrupted: %#x", e.Data[0])
		}
	}
	if !ports[2] || !ports[3] || !ports[4] {
		t.Errorf("replica ports = %v", ports)
	}
	// Replicas must not share backing arrays.
	res.Emissions[0].Data[0] = 0xFF
	if res.Emissions[1].Data[0] == 0xFF {
		t.Error("multicast replicas share a backing array")
	}
}

func TestSwitchToCPU(t *testing.T) {
	prog := &Program{
		Name:         "tocpu",
		Headers:      []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "x", Width: 8}}}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Control:      []Op{ToCPU()},
	}
	sw, err := NewSwitch(prog, TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Process(Packet{Data: []byte{9}, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emissions) != 1 || res.Emissions[0].Port != CPUPort {
		t.Fatalf("emissions = %+v, want one on CPUPort", res.Emissions)
	}
}

func TestSwitchRecirculation(t *testing.T) {
	// Count passes in a register: recirculate until pass counter hits 2.
	prog := &Program{
		Name:         "recirc",
		Headers:      []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "x", Width: 8}}}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers:    []*RegisterDef{{Name: "passes", Width: 32, Entries: 1}},
		Control: []Op{
			RegWrite("passes", C(0), R(F(MetaHeader, MetaPass))),
			If(Lt(R(F(MetaHeader, MetaPass)), C(2)), []Op{Recirculate()}, []Op{Forward(C(2))}),
		},
	}
	sw, err := NewSwitch(prog, BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Process(Packet{Data: []byte{1}, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes != 3 {
		t.Errorf("passes = %d, want 3", res.Passes)
	}
	if v, _ := sw.RegisterRead("passes", 0); v != 2 {
		t.Errorf("last recorded pass = %d, want 2", v)
	}
	if len(res.Emissions) != 1 || res.Emissions[0].Port != 2 {
		t.Errorf("emissions = %+v", res.Emissions)
	}
}

func TestSwitchRecirculationOverflowDrops(t *testing.T) {
	prog := &Program{
		Name:         "recirc_forever",
		Headers:      []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "x", Width: 8}}}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Control:      []Op{Recirculate(), Forward(C(2))},
	}
	sw, err := NewSwitch(prog, TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Process(Packet{Data: []byte{1}, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emissions) != 0 {
		t.Error("runaway recirculation should drop")
	}
	if sw.Counter("recirc_overflow") != 1 {
		t.Error("recirc_overflow not counted")
	}
}

func TestSwitchTernaryPriority(t *testing.T) {
	prog := &Program{
		Name:         "ternary",
		Headers:      []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "x", Width: 16}}}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Actions: []*Action{
			{Name: "out", Params: []FieldDef{{Name: "p", Width: 16}}, Body: []Op{Forward(R(F(ParamHeader, "p")))}},
		},
		Tables: []*Table{
			{Name: "acl", Keys: []TableKey{{Field: F("h", "x"), Match: MatchTernary}},
				Size: 16, Actions: []string{"out"}},
		},
		Control: []Op{Apply("acl")},
	}
	sw, err := NewSwitch(prog, TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	// Broad low-priority rule and narrow high-priority rule.
	if err := sw.InsertEntry("acl", Entry{Key: []KeyMatch{TKey(0x0000, 0xFF00)}, Priority: 1, Action: "out", Params: []uint64{2}}); err != nil {
		t.Fatal(err)
	}
	if err := sw.InsertEntry("acl", Entry{Key: []KeyMatch{TKey(0x0042, 0xFFFF)}, Priority: 10, Action: "out", Params: []uint64{3}}); err != nil {
		t.Fatal(err)
	}
	res, err := sw.Process(Packet{Data: []byte{0x00, 0x42}, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Emissions[0].Port != 3 {
		t.Errorf("port = %d, want high-priority 3", res.Emissions[0].Port)
	}
	res, err = sw.Process(Packet{Data: []byte{0x00, 0x41}, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Emissions[0].Port != 2 {
		t.Errorf("port = %d, want broad-rule 2", res.Emissions[0].Port)
	}
}

func TestSwitchKeyedHashMatchesCryptoPackage(t *testing.T) {
	// The controller computes digests with internal/crypto; the data plane
	// computes them with hash units. They must agree on the same bytes.
	prog := &Program{
		Name: "hashcheck",
		Headers: []*HeaderDef{{Name: "h", Fields: []FieldDef{
			{Name: "a", Width: 32}, {Name: "b", Width: 16}, {Name: "pad", Width: 16},
		}}},
		Metadata:     []FieldDef{{Name: "digest", Width: 32}, {Name: "key", Width: 64}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Control: []Op{
			Set(F(MetaHeader, "key"), C(0x1122334455667788)),
			KeyedHash(F(MetaHeader, "digest"), HashCRC32, R(F(MetaHeader, "key")),
				R(F("h", "a")), R(F("h", "b"))),
			RegWrite("out", C(0), R(F(MetaHeader, "digest"))),
		},
		Registers: []*RegisterDef{{Name: "out", Width: 32, Entries: 1}},
	}
	sw, err := NewSwitch(prog, TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x00, 0x00}
	if _, err := sw.Process(Packet{Data: data, Port: 1}); err != nil {
		t.Fatal(err)
	}
	got, _ := sw.RegisterRead("out", 0)

	// Reference: same field bytes (a=0xDEADBEEF:32, b=0x0102:16 packed
	// MSB-first) through crypto.KeyedCRC32.
	want := crypto.NewKeyedCRC32().Sum32(0x1122334455667788, []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02})
	if uint32(got) != want {
		t.Errorf("pipeline digest %#x != crypto package %#x", got, want)
	}
}

func TestSwitchHalfSipHashExternMatchesCryptoPackage(t *testing.T) {
	prog := &Program{
		Name:         "externcheck",
		Headers:      []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "a", Width: 32}}}},
		Metadata:     []FieldDef{{Name: "digest", Width: 32}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Control: []Op{
			KeyedHash(F(MetaHeader, "digest"), HashHalfSipHash, C(0xCAFED00D), R(F("h", "a"))),
			RegWrite("out", C(0), R(F(MetaHeader, "digest"))),
		},
		Registers: []*RegisterDef{{Name: "out", Width: 32, Entries: 1}},
	}
	sw, err := NewSwitch(prog, BMv2Profile())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Process(Packet{Data: []byte{0x01, 0x02, 0x03, 0x04}, Port: 1}); err != nil {
		t.Fatal(err)
	}
	got, _ := sw.RegisterRead("out", 0)
	want := crypto.NewHalfSipHash24().Sum32(0xCAFED00D, []byte{0x01, 0x02, 0x03, 0x04})
	if uint32(got) != want {
		t.Errorf("extern digest %#x != crypto package %#x", got, want)
	}
}

func TestSwitchRandomExternDeterministicWithSeed(t *testing.T) {
	mk := func() *Switch {
		prog := &Program{
			Name:         "rnd",
			Headers:      []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "x", Width: 8}}}},
			Metadata:     []FieldDef{{Name: "r", Width: 64}},
			Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
			DeparseOrder: []string{"h"},
			Control: []Op{
				Random(F(MetaHeader, "r")),
				RegWrite("out", C(0), R(F(MetaHeader, "r"))),
			},
			Registers: []*RegisterDef{{Name: "out", Width: 64, Entries: 1}},
		}
		sw, err := NewSwitch(prog, BMv2Profile(), WithRandom(crypto.NewSeededRand(42)))
		if err != nil {
			panic(err)
		}
		return sw
	}
	a, b := mk(), mk()
	if _, err := a.Process(Packet{Data: []byte{1}, Port: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Process(Packet{Data: []byte{1}, Port: 1}); err != nil {
		t.Fatal(err)
	}
	va, _ := a.RegisterRead("out", 0)
	vb, _ := b.RegisterRead("out", 0)
	if va != vb {
		t.Error("same seed produced different random() streams")
	}
	if va == 0 {
		t.Error("random() returned zero (suspicious)")
	}
}

func TestSwitchRegRMW(t *testing.T) {
	prog := &Program{
		Name:         "rmw",
		Headers:      []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "kind", Width: 8}}}},
		Metadata:     []FieldDef{{Name: "old", Width: 32}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers: []*RegisterDef{
			{Name: "cnt", Width: 32, Entries: 2},
			{Name: "seen", Width: 32, Entries: 2},
			{Name: "hwm", Width: 32, Entries: 2},
		},
		Control: []Op{
			If(Eq(R(F("h", "kind")), C(0)),
				[]Op{RegRMW(F(MetaHeader, "old"), "cnt", C(0), RMWAdd, C(1))},
				[]Op{
					RegRMW(F(MetaHeader, "old"), "seen", C(0), RMWWrite, R(F("h", "kind"))),
					RegRMW(F(MetaHeader, "old"), "hwm", C(0), RMWMax, R(F("h", "kind"))),
				}),
			RegWrite("out", C(0), R(F(MetaHeader, "old"))),
			Forward(C(2)),
		},
	}
	prog.Registers = append(prog.Registers, &RegisterDef{Name: "out", Width: 32, Entries: 1})
	sw, err := NewSwitch(prog, TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	// Two counter bumps.
	for i := 0; i < 2; i++ {
		if _, err := sw.Process(Packet{Data: []byte{0}, Port: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := sw.RegisterRead("cnt", 0); v != 2 {
		t.Errorf("cnt = %d, want 2", v)
	}
	if v, _ := sw.RegisterRead("out", 0); v != 1 {
		t.Errorf("old value after second bump = %d, want 1", v)
	}
	// Write-swap and max.
	if _, err := sw.Process(Packet{Data: []byte{7}, Port: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Process(Packet{Data: []byte{3}, Port: 1}); err != nil {
		t.Fatal(err)
	}
	if v, _ := sw.RegisterRead("seen", 0); v != 3 {
		t.Errorf("seen = %d, want last-written 3", v)
	}
	if v, _ := sw.RegisterRead("hwm", 0); v != 7 {
		t.Errorf("hwm = %d, want max 7", v)
	}
}

func TestCompileRMWSingleAccessLegalOnTofino(t *testing.T) {
	prog := &Program{
		Name:      "rmwok",
		Metadata:  []FieldDef{{Name: "old", Width: 32}},
		Registers: []*RegisterDef{{Name: "seq", Width: 32, Entries: 1}},
		Control: []Op{
			RegRMW(F(MetaHeader, "old"), "seq", C(0), RMWAdd, C(1)),
		},
	}
	if _, err := Compile(prog, TofinoProfile()); err != nil {
		t.Fatalf("single RMW must be legal: %v", err)
	}
	// RMW plus another access to the same register is two accesses.
	prog.Control = append(prog.Control, RegWrite("seq", C(0), C(9)))
	if _, err := Compile(prog, TofinoProfile()); err == nil {
		t.Fatal("RMW + write to same register must violate once-per-pass")
	}
}

func TestEgressPipelinePerReplica(t *testing.T) {
	// Each multicast replica stamps its own egress port into the header —
	// the mechanism P4Auth uses to sign each probe copy with its own port
	// key.
	prog := &Program{
		Name:         "egress",
		Headers:      []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "port", Width: 16}}}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Control:      []Op{Multicast(C(5))},
		EgressControl: []Op{
			Set(F("h", "port"), R(F(MetaHeader, MetaEgressPort))),
		},
	}
	sw, err := NewSwitch(prog, TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	sw.SetMulticastGroup(5, []int{2, 3})
	res, err := sw.Process(Packet{Data: []byte{0, 0}, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emissions) != 2 {
		t.Fatalf("emissions = %+v", res.Emissions)
	}
	for _, e := range res.Emissions {
		got := uint64(e.Data[0])<<8 | uint64(e.Data[1])
		if got != uint64(e.Port) {
			t.Errorf("replica on port %d carries %d", e.Port, got)
		}
	}
}

func TestEgressDropSelective(t *testing.T) {
	prog := &Program{
		Name:         "egdrop",
		Headers:      []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "x", Width: 8}}}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Control:      []Op{Multicast(C(1))},
		EgressControl: []Op{
			If(Eq(R(F(MetaHeader, MetaEgressPort)), C(3)), []Op{Drop()}),
		},
	}
	sw, err := NewSwitch(prog, TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	sw.SetMulticastGroup(1, []int{2, 3, 4})
	res, err := sw.Process(Packet{Data: []byte{1}, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emissions) != 2 {
		t.Fatalf("want port 3 replica dropped, got %+v", res.Emissions)
	}
	for _, e := range res.Emissions {
		if e.Port == 3 {
			t.Error("port 3 replica survived an egress drop")
		}
	}
	if sw.Counter("egress_dropped") != 1 {
		t.Error("egress_dropped counter not bumped")
	}
}

func TestCompileRejectsSharedIngressEgressRegister(t *testing.T) {
	prog := &Program{
		Name:      "shared",
		Metadata:  []FieldDef{{Name: "a", Width: 32}},
		Registers: []*RegisterDef{{Name: "st", Width: 32, Entries: 1}},
		Control:   []Op{RegRead(F(MetaHeader, "a"), "st", C(0))},
		EgressControl: []Op{
			RegWrite("st", C(0), C(1)),
		},
	}
	if _, err := Compile(prog, TofinoProfile()); err == nil {
		t.Fatal("register shared across ingress/egress must be rejected on hardware")
	}
	if _, err := Compile(prog, BMv2Profile()); err != nil {
		t.Fatalf("software target should allow it: %v", err)
	}
}

func TestCompileEgressStagesAccounted(t *testing.T) {
	prog := &Program{
		Name:     "eg",
		Metadata: []FieldDef{{Name: "a", Width: 32}},
		EgressControl: []Op{
			Add(F(MetaHeader, "a"), R(F(MetaHeader, "a")), C(1)),
			Add(F(MetaHeader, "a"), R(F(MetaHeader, "a")), C(1)),
		},
	}
	c, err := Compile(prog, TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	if c.Usage.EgressStages < 2 {
		t.Errorf("egress stages = %d, want >= 2", c.Usage.EgressStages)
	}
}

func BenchmarkPipelineL3Forward(b *testing.B) {
	prog := testL3Program()
	sw, err := NewSwitch(prog, TofinoProfile())
	if err != nil {
		b.Fatal(err)
	}
	if err := sw.InsertEntry("routes", Entry{Key: []KeyMatch{PKey(0x0A000000, 8)}, Action: "set_nhop", Params: []uint64{7}}); err != nil {
		b.Fatal(err)
	}
	if err := sw.InsertEntry("ports", Entry{Key: []KeyMatch{EKey(7)}, Action: "to_port", Params: []uint64{3}}); err != nil {
		b.Fatal(err)
	}
	pkt := Packet{Data: ethIPPacket(0x0A000001, 64), Port: 1}
	b.SetBytes(int64(len(pkt.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Process(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSwitchRegRMWXor(t *testing.T) {
	prog := &Program{
		Name:         "rmwxor",
		Headers:      []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "v", Width: 32}}}},
		Metadata:     []FieldDef{{Name: "old", Width: 32}},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers:    []*RegisterDef{{Name: "acc", Width: 32, Entries: 1}},
		Control: []Op{
			RegRMW(F(MetaHeader, "old"), "acc", C(0), RMWXor, R(F("h", "v"))),
			Forward(C(2)),
		},
	}
	sw, err := NewSwitch(prog, TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	send := func(v uint32) {
		t.Helper()
		def := &HeaderDef{Name: "h", Fields: []FieldDef{{Name: "v", Width: 32}}}
		d, _ := PackHeader(def, []uint64{uint64(v)})
		if _, err := sw.Process(Packet{Data: d, Port: 1}); err != nil {
			t.Fatal(err)
		}
	}
	send(0xAAAA)
	send(0x5555)
	if v, _ := sw.RegisterRead("acc", 0); v != 0xFFFF {
		t.Fatalf("acc = %#x, want 0xFFFF", v)
	}
	send(0xAAAA) // XOR-fold removes it again
	if v, _ := sw.RegisterRead("acc", 0); v != 0x5555 {
		t.Fatalf("acc = %#x, want 0x5555", v)
	}
}

// A parameter list that does not fit its action used to surface as a
// pipeline error on every matching packet; it is rejected where it is
// bound: the entry at install, the table default at compile.
func TestParamCountCheckedWhenBound(t *testing.T) {
	const want = "pisa: table ports action to_port: 2 params bound, want 1"
	sw := newTestSwitch(t, TofinoProfile())
	err := sw.InsertEntry("ports", Entry{Key: []KeyMatch{EKey(42)}, Action: "to_port", Params: []uint64{1, 2}})
	if err == nil || err.Error() != want {
		t.Errorf("InsertEntry with 2 params for a 1-param action: %v, want %q", err, want)
	}
	if err := sw.InsertEntry("ports", Entry{Key: []KeyMatch{EKey(42)}, Action: "to_port"}); err == nil {
		t.Error("InsertEntry with no params for a 1-param action was accepted")
	}
	// The rejected entries were not installed: next hop 42 still drops.
	if err := sw.InsertEntry("routes", Entry{Key: []KeyMatch{PKey(0x0B000000, 8)}, Action: "set_nhop", Params: []uint64{42}}); err != nil {
		t.Fatal(err)
	}
	if res, err := sw.Process(Packet{Data: ethIPPacket(0x0B000001, 64), Port: 1}); err != nil || len(res.Emissions) != 0 {
		t.Errorf("a rejected entry is in the table: %+v, %v", res.Emissions, err)
	}

	prog := testL3Program()
	prog.Tables[1].Default, prog.Tables[1].DefaultParams = "to_port", []uint64{1, 2}
	if _, err := Compile(prog, TofinoProfile()); err == nil || err.Error() != want {
		t.Errorf("Compile with 2 default params for a 1-param action: %v, want %q", err, want)
	}
	prog.Tables[1].DefaultParams = []uint64{3}
	sw, err = NewSwitch(prog, TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.InsertEntry("routes", Entry{Key: []KeyMatch{PKey(0x0A000000, 8)}, Action: "set_nhop", Params: []uint64{7}}); err != nil {
		t.Fatal(err)
	}
	// The run reads the linked copy: the caller's Program may change.
	prog.Tables[1].DefaultParams = nil
	res, err := sw.Process(Packet{Data: ethIPPacket(0x0A000001, 64), Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emissions) != 1 || res.Emissions[0].Port != 3 {
		t.Errorf("miss on ports did not run the default action with its parameter: %+v", res.Emissions)
	}
}

// TestSwitchALUAndHashVariants runs the ops no hosted program happens to
// use (rotate, shifts past the word, unkeyed CRC32C, identity over the
// payload) against their definitions.
func TestSwitchALUAndHashVariants(t *testing.T) {
	md := func(f string) FieldRef { return F(MetaHeader, f) }
	h := F("h", "a")
	prog := &Program{
		Name:    "variants",
		Headers: []*HeaderDef{{Name: "h", Fields: []FieldDef{{Name: "a", Width: 32}}}},
		Metadata: []FieldDef{
			{Name: "rot", Width: 32}, {Name: "rot0", Width: 32}, {Name: "shl", Width: 64}, {Name: "shr", Width: 64},
			{Name: "crc", Width: 32}, {Name: "id", Width: 32}, {Name: "narrow", Width: 12},
		},
		Parser:       []ParserState{{Name: ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers:    []*RegisterDef{{Name: "out", Width: 64, Entries: 8}},
		Control: []Op{
			Rotl(md("rot"), R(h), C(8)),
			Rotl(md("rot0"), R(h), C(64)), // 64 mod 32 = 0: unchanged
			Shl(md("shl"), R(h), C(64)),
			Shr(md("shr"), R(h), C(200)),
			Hash(md("crc"), HashCRC32C, R(h), C(7)),
			{Kind: OpHash, Dst: md("id"), Alg: HashIdentity, IncludePayload: true},
			Add(md("narrow"), R(h), C(1)),
			RegWrite("out", C(0), R(md("rot"))),
			RegWrite("out", C(1), R(md("rot0"))),
			RegWrite("out", C(2), R(md("shl"))),
			RegWrite("out", C(3), R(md("shr"))),
			RegWrite("out", C(4), R(md("crc"))),
			RegWrite("out", C(5), R(md("id"))),
			RegWrite("out", C(6), R(md("narrow"))),
		},
	}
	sw, err := NewSwitch(prog, BMv2Profile()) // one register written seven times: not a hardware program
	if err != nil {
		t.Fatal(err)
	}
	if prog.Table("nope") != nil || prog.Register("out") == nil {
		t.Error("Program lookups by name are wrong")
	}
	if _, err := sw.Process(Packet{Data: []byte{0x12, 0x34, 0x5f, 0xff, 0xAA, 0xBB}, Port: 1}); err != nil {
		t.Fatal(err)
	}
	crcIn := []byte{0x12, 0x34, 0x5f, 0xff, 0, 0, 0, 0, 0, 0, 0, 7} // a:32 then the 64-bit constant
	want := []uint64{
		0x345fff12, 0x12345fff, 0, 0,
		uint64(crc32.Checksum(crcIn, crc32.MakeTable(crc32.Castagnoli))),
		0xAABB,
		0x000, // 0x12345fff + 1 = 0x12346000, cut to 12 bits
	}
	for i, w := range want {
		if got, _ := sw.RegisterRead("out", i); got != w {
			t.Errorf("out[%d] = %#x, want %#x", i, got, w)
		}
	}
}
