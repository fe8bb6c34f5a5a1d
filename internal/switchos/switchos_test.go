package switchos

import (
	"bytes"
	"testing"

	"p4auth/internal/pisa"
)

// hostProgram is a minimal forwarder with a latency register, mirroring
// the RouteScout-style state the paper's attacks target.
func hostProgram() *pisa.Program {
	return &pisa.Program{
		Name:         "host_test",
		Headers:      []*pisa.HeaderDef{{Name: "h", Fields: []pisa.FieldDef{{Name: "kind", Width: 8}}}},
		Parser:       []pisa.ParserState{{Name: pisa.ParserStart, Extract: "h"}},
		DeparseOrder: []string{"h"},
		Registers: []*pisa.RegisterDef{
			{Name: "path_latency", Width: 32, Entries: 4},
		},
		Control: []pisa.Op{
			pisa.If(pisa.Eq(pisa.R(pisa.F("h", "kind")), pisa.C(1)),
				[]pisa.Op{pisa.ToCPU()},
				[]pisa.Op{pisa.Forward(pisa.C(2))}),
		},
	}
}

func newHost(t *testing.T) *Host {
	t.Helper()
	sw, err := pisa.NewSwitch(hostProgram(), pisa.TofinoProfile())
	if err != nil {
		t.Fatal(err)
	}
	return NewHost("s1", sw, DefaultCosts())
}

func regID(t *testing.T, h *Host, name string) uint32 {
	t.Helper()
	ri, err := h.Info.RegisterByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return ri.ID
}

func TestAPIRegisterWriteRead(t *testing.T) {
	h := newHost(t)
	id := regID(t, h, "path_latency")
	wCost, err := h.APIRegisterWrite(id, 2, 777)
	if err != nil {
		t.Fatal(err)
	}
	v, rCost, err := h.APIRegisterRead(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 777 {
		t.Errorf("read back %d, want 777", v)
	}
	if wCost <= 0 || rCost <= 0 {
		t.Error("costs must be positive")
	}
	// The paper's Fig. 19 asymmetry source: writes compose two fields.
	if wCost <= rCost-2*DefaultCosts().SDKBase {
		t.Errorf("write request cost %v should exceed read request cost %v", wCost, rCost)
	}
}

func TestAPIRegisterUnknownID(t *testing.T) {
	h := newHost(t)
	if _, err := h.APIRegisterWrite(0xdead, 0, 1); err == nil {
		t.Error("expected unknown-id write error")
	}
	if _, _, err := h.APIRegisterRead(0xdead, 0); err == nil {
		t.Error("expected unknown-id read error")
	}
}

func TestCompromisedStackRewritesWrite(t *testing.T) {
	// The paper's Attack 1 mechanics: a preloaded library rewrites the
	// value of a register write between the agent and the SDK.
	h := newHost(t)
	id := regID(t, h, "path_latency")
	if err := h.Install(BoundaryAgentSDK, &Hooks{
		OnRegOp: func(op *RegOp) {
			if op.IsWrite {
				op.Value = 9999 // inflate the latency the controller wrote
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if !h.Compromised() {
		t.Error("Compromised() should report installed hooks")
	}
	if _, err := h.APIRegisterWrite(id, 0, 10); err != nil {
		t.Fatal(err)
	}
	v, err := h.SW.RegisterRead("path_latency", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 9999 {
		t.Errorf("data plane holds %d; the interposer should have written 9999", v)
	}
}

func TestCompromisedStackRewritesReadResult(t *testing.T) {
	h := newHost(t)
	id := regID(t, h, "path_latency")
	if err := h.SW.RegisterWrite("path_latency", 1, 50); err != nil {
		t.Fatal(err)
	}
	if err := h.Install(BoundarySDKDriver, &Hooks{
		OnRegResult: func(op *RegOp, value *uint64) { *value = 5 },
	}); err != nil {
		t.Fatal(err)
	}
	v, _, err := h.APIRegisterRead(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Errorf("controller saw %d; interposer should have reported 5", v)
	}
	// Ground truth in the data plane is untouched.
	dp, _ := h.SW.RegisterRead("path_latency", 1)
	if dp != 50 {
		t.Errorf("data plane value changed to %d", dp)
	}
}

func TestHookRedirectionToAnotherRegisterIndex(t *testing.T) {
	h := newHost(t)
	id := regID(t, h, "path_latency")
	if err := h.Install(BoundarySDKDriver, &Hooks{
		OnRegOp: func(op *RegOp) { op.Index = 3 },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.APIRegisterWrite(id, 0, 42); err != nil {
		t.Fatal(err)
	}
	v0, _ := h.SW.RegisterRead("path_latency", 0)
	v3, _ := h.SW.RegisterRead("path_latency", 3)
	if v0 != 0 || v3 != 42 {
		t.Errorf("index redirect failed: [0]=%d [3]=%d", v0, v3)
	}
}

func TestPacketOutReachesPipelineAndPacketInReturns(t *testing.T) {
	h := newHost(t)
	// kind=1 goes to CPU -> PacketIn; kind=0 forwards to port 2.
	res, err := h.PacketOut([]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PacketIns) != 1 || len(res.NetOut) != 0 {
		t.Fatalf("res = %+v, want one PacketIn", res)
	}
	res, err = h.PacketOut([]byte{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NetOut) != 1 || res.NetOut[0].Port != 2 {
		t.Fatalf("res = %+v, want one emission on port 2", res)
	}
	if res.Cost <= 0 {
		t.Error("cost must be positive")
	}
}

func TestPacketOutHookRewriteAndDrop(t *testing.T) {
	h := newHost(t)
	if err := h.Install(BoundaryAgentSDK, &Hooks{
		OnPacketOut: func(data []byte) []byte {
			data[0] = 1 // turn a forward packet into a to-CPU packet
			return data
		},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := h.PacketOut([]byte{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PacketIns) != 1 {
		t.Error("rewritten PacketOut should have reached the CPU path")
	}

	if err := h.Install(BoundaryAgentSDK, &Hooks{
		OnPacketOut: func(data []byte) []byte { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	res, err = h.PacketOut([]byte{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NetOut) != 0 && len(res.PacketIns) != 0 {
		t.Error("dropped PacketOut still produced output")
	}
}

func TestPacketInHookRewrite(t *testing.T) {
	h := newHost(t)
	if err := h.Install(BoundarySDKDriver, &Hooks{
		OnPacketIn: func(data []byte) []byte {
			data[0] = 0xEE
			return data
		},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := h.NetworkPacket(5, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PacketIns) != 1 || res.PacketIns[0][0] != 0xEE {
		t.Fatalf("res = %+v, want rewritten PacketIn", res)
	}
}

func TestNetworkPacketNoStackCostOnFastPath(t *testing.T) {
	h := newHost(t)
	res, err := h.NetworkPacket(5, []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	// Pure data-plane forwarding: cost must be far below the software
	// stack's per-request costs.
	if res.Cost >= DefaultCosts().AgentBase {
		t.Errorf("fast-path cost %v should be below agent cost %v (R4)", res.Cost, DefaultCosts().AgentBase)
	}
}

// TestIOResultLifetime pins IOResult's lifetime rule for the single-packet
// entry points, which hand out the pipeline's own emission buffers: the
// bytes are unchanged until the next *Into on the same result, whatever
// else the host processes meanwhile, and a by-value result owns its bytes
// for good.
func TestIOResultLifetime(t *testing.T) {
	h := newHost(t)
	toCPU := []byte{1, 0xAA, 0xBB}
	forwarded := []byte{0, 0xCC, 0xDD}

	// snapshot returns a check that every slice of io still reads as it
	// does now.
	snapshot := func(io *IOResult) func(when string) {
		var held, want [][]byte
		for _, p := range io.PacketIns {
			held, want = append(held, p), append(want, append([]byte(nil), p...))
		}
		for _, e := range io.NetOut {
			held, want = append(held, e.Data), append(want, append([]byte(nil), e.Data...))
		}
		if len(held) == 0 {
			t.Fatal("nothing emitted: the test would hold no bytes")
		}
		return func(when string) {
			t.Helper()
			for i := range held {
				if !bytes.Equal(held[i], want[i]) {
					t.Fatalf("%s: held bytes read %x, were %x", when, held[i], want[i])
				}
			}
		}
	}
	// traffic runs other packets through the same host on other results.
	traffic := func() {
		var other IOResult
		for i := 0; i < 8; i++ {
			if err := h.PacketOutInto([]byte{1, byte(i), 0x11}, &other); err != nil {
				t.Fatal(err)
			}
			if err := h.NetworkPacketInto(3, []byte{0, byte(i), 0x22}, &other); err != nil {
				t.Fatal(err)
			}
			if _, err := h.PacketOutBatch([][]byte{{1, 0x33}, {0, 0x44}}); err != nil {
				t.Fatal(err)
			}
		}
	}

	var io IOResult
	if err := h.PacketOutInto(toCPU, &io); err != nil {
		t.Fatal(err)
	}
	check := snapshot(&io)
	traffic()
	check("PacketOutInto result after traffic on other results")

	if err := h.NetworkPacketInto(2, forwarded, &io); err != nil {
		t.Fatal(err)
	}
	check = snapshot(&io)
	traffic()
	check("NetworkPacketInto result after traffic on other results")

	byValue, err := h.PacketOut(toCPU)
	if err != nil {
		t.Fatal(err)
	}
	check = snapshot(&byValue)
	traffic()
	for i := 0; i < 4; i++ { // and reuse of the result the bytes came through
		if err := h.PacketOutInto(forwarded, &io); err != nil {
			t.Fatal(err)
		}
	}
	check("by-value PacketOut result after later traffic")

	// A window shares one pipeline result packet after packet, so its
	// emissions are copied: every packet's bytes are there at the end.
	window := [][]byte{{1, 0x01}, {1, 0x02}, {0, 0x03}, {1, 0x04}}
	if err := h.PacketOutBatchInto(window, &io); err != nil {
		t.Fatal(err)
	}
	if len(io.PacketIns) != 3 || len(io.NetOut) != 1 {
		t.Fatalf("window: %d PacketIns / %d NetOut, want 3 / 1", len(io.PacketIns), len(io.NetOut))
	}
	for i, want := range [][]byte{{1, 0x01}, {1, 0x02}, {1, 0x04}} {
		if !bytes.Equal(io.PacketIns[i], want) {
			t.Fatalf("window PacketIns[%d] = %x, want %x", i, io.PacketIns[i], want)
		}
	}
	if !bytes.Equal(io.NetOut[0].Data, window[2]) {
		t.Fatalf("window NetOut = %x, want %x", io.NetOut[0].Data, window[2])
	}
}

func TestInstallBadBoundary(t *testing.T) {
	h := newHost(t)
	if err := h.Install(Boundary(99), &Hooks{}); err == nil {
		t.Error("expected boundary error")
	}
}
