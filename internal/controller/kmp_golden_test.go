package controller

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/netsim"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

// Golden for the single-shot KMP flows: every observable outcome of
// LocalKeyInit, LocalKeyUpdate, PortKeyInit and PortKeyUpdate on two
// linked switches under a fixed fault schedule, for seeds 1-3 on both
// digesters. Each phase starts from a fresh fixture. A change to the KMP
// drivers' internals must leave it byte-identical.
//
// Regenerate (reviewed behaviour changes only) with:
//
//	GOLDEN_UPDATE=1 go test -run TestKMPPlainGolden ./internal/controller/
const kmpGoldenPath = "testdata/kmp_plain.golden"

// The fixture's switches have two ports; port 1 of each faces the other,
// and probes enter on the generator port.
const (
	kmpPorts    = 2
	kmpLinkPort = 1
	kmpGenPort  = kmpPorts + 1
	kmpProbeHdr = "kg_probe"
)

var kmpSwitches = [2]string{"s1", "s2"}

// kmpDigests are the fixture's two digesters, by name.
var kmpDigests = []struct {
	name string
	kind core.DigestKind
}{{"crc32", core.DigestCRC32}, {"halfsiphash", core.DigestHalfSipHash}}

// kmpStep is one flow of the schedule every phase runs.
type kmpStep struct {
	name string
	run  func(c *Controller) (KMPResult, error)
}

var kmpSteps = []kmpStep{
	{"LocalKeyInit s1", func(c *Controller) (KMPResult, error) { return c.LocalKeyInit("s1") }},
	{"LocalKeyInit s2", func(c *Controller) (KMPResult, error) { return c.LocalKeyInit("s2") }},
	{"LocalKeyUpdate s1", func(c *Controller) (KMPResult, error) { return c.LocalKeyUpdate("s1") }},
	{"LocalKeyUpdate s2", func(c *Controller) (KMPResult, error) { return c.LocalKeyUpdate("s2") }},
	{"LocalKeyUpdate s1", func(c *Controller) (KMPResult, error) { return c.LocalKeyUpdate("s1") }},
	{"PortKeyInit s1:1-s2:1", func(c *Controller) (KMPResult, error) {
		return c.PortKeyInit("s1", kmpLinkPort, "s2", kmpLinkPort)
	}},
	{"PortKeyUpdate s1:1", func(c *Controller) (KMPResult, error) { return c.PortKeyUpdate("s1", kmpLinkPort) }},
	{"PortKeyUpdate s2:1", func(c *Controller) (KMPResult, error) { return c.PortKeyUpdate("s2", kmpLinkPort) }},
	{"PortKeyUpdate s1:1", func(c *Controller) (KMPResult, error) { return c.PortKeyUpdate("s1", kmpLinkPort) }},
}

// kmpTamper alters one key-exchange message at a switch's SDK/driver
// boundary: the first one of type msg that crosses it, in the direction
// given, while step runs.
type kmpTamper struct {
	step int
	sw   int // index into kmpSwitches
	msg  uint8
	resp bool // a PacketIn on its way up rather than a PacketOut on its way down
}

// kmpPhase is one fault in force for a whole run of kmpSteps.
type kmpPhase struct {
	name            string
	lossOut, lossIn bool // control-channel loss on both switches
	tamper          *kmpTamper
	// dropDP drops the first DP-DP packet leaving s2's link port while
	// step 6 (the first PortKeyUpdate from s1) runs: s1 never hears the
	// ADHKD2 answer.
	dropDP bool
}

var kmpPhases = []kmpPhase{
	{name: "clean"},
	{name: "loss out", lossOut: true},
	{name: "loss in", lossIn: true},
	{name: "tamper init EAK", tamper: &kmpTamper{step: 0, sw: 0, msg: core.MsgEAKSalt1}},
	{name: "tamper init ADHKD", tamper: &kmpTamper{step: 0, sw: 0, msg: core.MsgADHKD1}},
	{name: "tamper update ADHKD", tamper: &kmpTamper{step: 2, sw: 0, msg: core.MsgADHKD1}},
	{name: "tamper port init leg 1-2", tamper: &kmpTamper{step: 5, sw: 0, msg: core.MsgPortKeyInit}},
	{name: "tamper port init leg 3-4", tamper: &kmpTamper{step: 5, sw: 1, msg: core.MsgADHKD1}},
	{name: "tamper port init leg 5", tamper: &kmpTamper{step: 5, sw: 0, msg: core.MsgADHKD2}},
	{name: "tamper port update", tamper: &kmpTamper{step: 6, sw: 0, msg: core.MsgPortKeyUpdate}},
	{name: "tamper update response", tamper: &kmpTamper{step: 2, sw: 0, msg: core.MsgADHKD2, resp: true}},
	{name: "drop DP-DP leg", dropDP: true},
}

// kmpProgramKey names the golden's probe program in pisa.CompileOnce.
type kmpProgramKey struct{ kind core.DigestKind }

// kmpGoldenHost builds one switch of the fixture: P4Auth woven into a
// program whose only host logic is an authenticated probe. A probe enters
// on the generator port, leaves signed under the link port's key, and
// where it arrives is verified, counted in pa_fb_ok, and dropped. Both
// digesters run on the BMv2 profile: signing feedback at egress does not
// fit Tofino's twelve stages.
func kmpGoldenHost(t *testing.T, name string, kind core.DigestKind, seed uint64) (*switchos.Host, core.Config) {
	t.Helper()
	cfg := core.DefaultConfig(kmpPorts, kind)
	meta := func(f string) pisa.FieldRef { return pisa.F(pisa.MetaHeader, f) }
	compiled, err := pisa.CompileOnce(kmpProgramKey{kind}, pisa.BMv2Profile(), func() (*pisa.Program, error) {
		prog := &pisa.Program{
			Name: "kmp_golden",
			Headers: []*pisa.HeaderDef{
				core.PTypeHeader(),
				{Name: kmpProbeHdr, Fields: []pisa.FieldDef{{Name: "dst", Width: 16}}},
			},
			Parser: []pisa.ParserState{
				{Name: pisa.ParserStart, Extract: core.HdrPType},
				{Name: "kg_probe_state", Extract: kmpProbeHdr},
			},
			DeparseOrder: []string{core.HdrPType, kmpProbeHdr},
			Control: []pisa.Op{pisa.If(pisa.Valid(kmpProbeHdr), []pisa.Op{
				pisa.If(pisa.Eq(pisa.R(meta(pisa.MetaIngressPort)), pisa.C(kmpGenPort)),
					[]pisa.Op{pisa.Forward(pisa.C(kmpLinkPort))},
					[]pisa.Op{pisa.Drop()}),
			})},
		}
		return prog, core.AddToProgram(prog, cfg, core.Integration{
			Aux:           []core.AuxPayload{{Header: kmpProbeHdr, ParserState: "kg_probe_state"}},
			GeneratorPort: kmpGenPort,
			LinkTelemetry: true,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	sw := pisa.NewSwitchFromCompiled(compiled, pisa.WithRandom(crypto.NewSeededRand(seed)))
	if err := core.Boot(sw, cfg); err != nil {
		t.Fatal(err)
	}
	return switchos.NewHost(name, sw, switchos.DefaultCosts()), cfg
}

// kmpProbe sends one probe from src across the link and reports whether
// dst accepted it.
func kmpProbe(t *testing.T, src, dst *switchos.Host) string {
	t.Helper()
	probe, err := (&core.Message{
		Header: core.Header{HdrType: core.HdrFeedback, MsgType: core.MsgProbe},
		Aux:    []byte{0, 1},
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := src.NetworkPacket(kmpGenPort, probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.NetOut) != 1 {
		return fmt.Sprintf("%d emitted", len(out.NetOut))
	}
	before, _ := dst.SW.RegisterRead(core.RegFbOK, kmpLinkPort)
	in, err := dst.NetworkPacket(kmpLinkPort, out.NetOut[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := dst.SW.RegisterRead(core.RegFbOK, kmpLinkPort)
	if after == before+1 && len(in.PacketIns) == 0 {
		return "ok"
	}
	return fmt.Sprintf("rejected(%d PacketIns)", len(in.PacketIns))
}

// kmpFabric registers the fixture's two switches, linked port to port,
// with a fresh controller; no key is established yet.
func kmpFabric(t *testing.T, seed uint64, kind core.DigestKind) (*Controller, [2]*switchos.Host) {
	t.Helper()
	c := New(crypto.NewSeededRand(seed))
	var hosts [2]*switchos.Host
	for i, name := range kmpSwitches {
		host, cfg := kmpGoldenHost(t, name, kind, seed+uint64(i)|1)
		if err := c.Register(name, host, cfg, 50*time.Microsecond); err != nil {
			t.Fatal(err)
		}
		hosts[i] = host
	}
	if err := c.ConnectSwitches("s1", kmpLinkPort, "s2", kmpLinkPort, 5*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	return c, hosts
}

func kmpGoldenRun(t *testing.T, b *strings.Builder, seed uint64, kind core.DigestKind, ph kmpPhase) {
	c, hosts := kmpFabric(t, seed, kind)
	for i, name := range kmpSwitches {
		var out, in netsim.Tap
		if ph.lossOut {
			out = netsim.LossTap(0.2, seed^uint64(0x20+i))
		}
		if ph.lossIn {
			in = netsim.LossTap(0.2, seed^uint64(0x30+i))
		}
		if err := c.SetControlTaps(name, out, in); err != nil {
			t.Fatal(err)
		}
	}
	step := -1
	if tp := ph.tamper; tp != nil {
		fired := false
		alter := func(data []byte) []byte {
			m, err := core.DecodeMessage(data)
			if fired || step != tp.step || err != nil || m.Kx == nil || m.MsgType != tp.msg {
				return data
			}
			fired = true
			m.Kx.Salt ^= 1
			out, _ := m.Encode()
			return out
		}
		hooks := &switchos.Hooks{OnPacketOut: alter}
		if tp.resp {
			hooks = &switchos.Hooks{OnPacketIn: alter}
		}
		if err := hosts[tp.sw].Install(switchos.BoundarySDKDriver, hooks); err != nil {
			t.Fatal(err)
		}
	}
	if ph.dropDP {
		dropped := false
		if err := c.SetLinkTap("s2", kmpLinkPort, func(data []byte) []byte {
			if step == 6 && !dropped {
				dropped = true
				return nil
			}
			return data
		}); err != nil {
			t.Fatal(err)
		}
	}

	fmt.Fprintf(b, "-- %s\n", ph.name)
	for i, st := range kmpSteps {
		step = i
		res, err := st.run(c)
		verdict := "ok"
		if err != nil {
			verdict = causeOf(err) + ": " + err.Error()
		}
		fmt.Fprintf(b, " %s msgs=%d bytes=%d rtt=%d %s\n", st.name, res.Messages, res.Bytes, res.RTT, verdict)
	}
	step = -1

	alerts := c.Alerts()
	labels := make([]string, len(alerts))
	for i, a := range alerts {
		labels[i] = fmt.Sprintf("%s/%d:%d", a.Switch, a.Reason, a.SeqNum)
	}
	fmt.Fprintf(b, " alerts %d: %s\n", len(alerts), strings.Join(labels, " "))
	events := c.Observer().Audit.Events()
	fmt.Fprintf(b, " audit %d\n", len(events))
	for _, e := range events {
		fmt.Fprintf(b, "  %s %s %s %d %d\n", e.Type, e.Actor, e.Cause, e.Seq, e.Value)
	}
	st := c.Stats()
	fmt.Fprintf(b, " stats sent=%d/%dB recvd=%d/%dB\n", st.MessagesSent, st.BytesSent, st.MessagesRecvd, st.BytesRecvd)
	for i, name := range kmpSwitches {
		h, err := c.handle(name)
		if err != nil {
			t.Fatal(err)
		}
		_, ver, kerr := h.keys.Current(core.KeyIndexLocal)
		ctl := fmt.Sprint(ver)
		if kerr != nil {
			ctl = "none"
		}
		local, _ := hosts[i].SW.RegisterRead(core.RegVer, core.KeyIndexLocal)
		port, _ := hosts[i].SW.RegisterRead(core.RegVer, kmpLinkPort)
		fmt.Fprintf(b, " %s outstanding=%d ctl_ver=%s pa_ver=%d/%d\n", name, h.seq.Outstanding(), ctl, local, port)
	}
	fmt.Fprintf(b, " probe s1->s2 %s, s2->s1 %s\n", kmpProbe(t, hosts[0], hosts[1]), kmpProbe(t, hosts[1], hosts[0]))
}

func TestKMPPlainGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Single-shot KMP flows under a fixed fault schedule (kmp_golden_test.go).\n")
	b.WriteString("# Regenerate (reviewed behaviour changes only): GOLDEN_UPDATE=1\n")
	for seed := uint64(1); seed <= 3; seed++ {
		for _, d := range kmpDigests {
			fmt.Fprintf(&b, "== seed=%d digest=%s\n", seed, d.name)
			for _, ph := range kmpPhases {
				kmpGoldenRun(t, &b, seed, d.kind, ph)
			}
		}
	}
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kmpGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(kmpGoldenPath)
	if err != nil {
		t.Fatalf("read golden (run with GOLDEN_UPDATE=1 to create): %v", err)
	}
	if got := b.String(); string(want) != got {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("KMP flows diverged from %s at line %d\n--- pinned\n%s\n--- got\n%s",
					kmpGoldenPath, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("KMP flows diverged from %s: %d lines pinned, %d got", kmpGoldenPath, len(wl), len(gl))
	}
}
