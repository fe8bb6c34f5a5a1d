package deploy

import (
	"testing"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/netsim"
	"p4auth/internal/pisa"
)

func TestBuildDefaults(t *testing.T) {
	sw, err := Build(SwitchSpec{Name: "d1"})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cfg.Ports != 8 {
		t.Errorf("default ports = %d", sw.Cfg.Ports)
	}
	if sw.Cfg.Digest != core.DigestCRC32 {
		t.Errorf("tofino default digest = %d", int(sw.Cfg.Digest))
	}
	// Seed key loaded at boot.
	v, err := sw.Host.SW.RegisterRead(core.RegKeysV0, core.KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	if v != sw.Cfg.Seed {
		t.Errorf("boot key %#x != seed %#x", v, sw.Cfg.Seed)
	}
}

func TestBuildBMv2PicksHalfSipHash(t *testing.T) {
	sw, err := Build(SwitchSpec{Name: "d2", Profile: pisa.BMv2Profile()})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Cfg.Digest != core.DigestHalfSipHash {
		t.Errorf("bmv2 default digest = %d", int(sw.Cfg.Digest))
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(SwitchSpec{}); err == nil {
		t.Error("nameless switch must fail")
	}
	if _, err := Build(SwitchSpec{Name: "x", Registers: []*pisa.RegisterDef{
		{Name: "bad", Width: 99, Entries: 1},
	}}); err == nil {
		t.Error("invalid register must fail")
	}
}

func TestBuildExposesRegistersInRegMap(t *testing.T) {
	sw, err := Build(SwitchSpec{Name: "d3", Registers: []*pisa.RegisterDef{
		{Name: "a", Width: 32, Entries: 2},
		{Name: "b", Width: 64, Entries: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := sw.Host.Info.RegisterByName(name); err != nil {
			t.Errorf("register %s missing from p4info: %v", name, err)
		}
	}
}

func TestSwitchNodeForwardsAndSurfacesPacketIns(t *testing.T) {
	sw, err := Build(SwitchSpec{Name: "n1", Registers: []*pisa.RegisterDef{
		{Name: "r", Width: 32, Entries: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var pins [][]byte
	// PacketIns are lent for the callback only: the node reuses one result.
	node := &SwitchNode{Host: sw.Host, OnPacketIn: func(d []byte) { pins = append(pins, append([]byte(nil), d...)) }}
	net := netsim.NewNetwork()
	n := net.AddNode("n1", node)
	sink := &Sink{}
	net.AddNode("sink", sink.Handler())
	net.MustConnect("n1", 1, "sink", 1, time.Microsecond, 0)

	// A garbage P4Auth message raises an alert PacketIn.
	bad := &core.Message{
		Header: core.Header{HdrType: core.HdrRegister, MsgType: core.MsgWriteReq, SeqNum: 5, Digest: 0xBAD},
		Reg:    &core.RegPayload{RegID: 1, Index: 0, Value: 1},
	}
	enc, _ := bad.Encode()
	node.Inject(net, n, 2, enc)
	net.Sim.Run()
	if len(pins) != 1 {
		t.Fatalf("PacketIns = %d, want 1 alert", len(pins))
	}
	m, err := core.DecodeMessage(pins[0])
	if err != nil {
		t.Fatal(err)
	}
	if m.HdrType != core.HdrAlert {
		t.Errorf("hdrType = %d", m.HdrType)
	}
	if len(node.Errors) != 0 {
		t.Errorf("node errors: %v", node.Errors)
	}
}

// TestSwitchNodeReusesItsResult sends three different packets through one
// node, which runs them into one reused result: each must surface exactly
// its own alert, read through the copy the callback took.
func TestSwitchNodeReusesItsResult(t *testing.T) {
	sw, err := Build(SwitchSpec{Name: "n1", Ports: 2})
	if err != nil {
		t.Fatal(err)
	}
	var pins [][]byte
	node := &SwitchNode{Host: sw.Host, OnPacketIn: func(d []byte) { pins = append(pins, append([]byte(nil), d...)) }}
	net := netsim.NewNetwork()
	n := net.AddNode("n1", node)
	for seq := uint32(5); seq < 8; seq++ {
		bad := &core.Message{
			Header: core.Header{HdrType: core.HdrRegister, MsgType: core.MsgWriteReq, SeqNum: seq, Digest: 0xBAD},
			Reg:    &core.RegPayload{RegID: 1, Index: 0, Value: 1},
		}
		enc, _ := bad.Encode()
		node.Inject(net, n, 2, enc)
	}
	if len(pins) != 3 {
		t.Fatalf("PacketIns = %d, want one alert per packet", len(pins))
	}
	for i, pin := range pins {
		m, err := core.DecodeMessage(pin)
		if err != nil || m.HdrType != core.HdrAlert || m.SeqNum != uint32(5+i) {
			t.Errorf("alert %d: %+v, %v", i, m, err)
		}
	}
}

// TestSwitchNodeErrorsAreBounded: a persistently malformed flow is counted
// in full but keeps only its first errors.
func TestSwitchNodeErrorsAreBounded(t *testing.T) {
	sw, err := Build(SwitchSpec{Name: "n1", Ports: 2})
	if err != nil {
		t.Fatal(err)
	}
	node := &SwitchNode{Host: sw.Host}
	net := netsim.NewNetwork()
	n := net.AddNode("n1", node)
	// An empty packet cannot be parsed: the pipeline reports it.
	const packets = 3 * maxNodeErrors
	for i := 0; i < packets; i++ {
		node.Inject(net, n, 1, nil)
	}
	if node.ErrorCount != packets || len(node.Errors) != maxNodeErrors {
		t.Fatalf("ErrorCount = %d, len(Errors) = %d; want %d and %d", node.ErrorCount, len(node.Errors), packets, maxNodeErrors)
	}
	if _, want := sw.Host.NetworkPacket(1, nil); node.Errors[0].Error() != want.Error() {
		t.Errorf("first error = %v, want %v", node.Errors[0], want)
	}
}

func TestSinkCounts(t *testing.T) {
	s := &Sink{}
	net := netsim.NewNetwork()
	net.AddNode("a", nil)
	net.AddNode("b", s.Handler())
	net.MustConnect("a", 1, "b", 1, 0, 0)
	for i := 0; i < 3; i++ {
		if err := net.Send(net.Node("a"), 1, make([]byte, 100), 0); err != nil {
			t.Fatal(err)
		}
	}
	net.Sim.Run()
	if s.Packets != 3 || s.Bytes != 300 {
		t.Errorf("sink = %+v", s)
	}
}
