package attacker

import (
	"errors"
	"testing"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

func buildVictim(t *testing.T, insecure bool) (*deploy.Switch, *controller.Controller) {
	t.Helper()
	sw, err := deploy.Build(deploy.SwitchSpec{
		Name:     "victim",
		Ports:    4,
		Insecure: insecure,
		Registers: []*pisa.RegisterDef{
			{Name: "state", Width: 64, Entries: 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := controller.New(crypto.NewSeededRand(0xA77))
	if err := c.Register("victim", sw.Host, sw.Cfg, 0); err != nil {
		t.Fatal(err)
	}
	if !insecure {
		if _, err := c.LocalKeyInit("victim"); err != nil {
			t.Fatal(err)
		}
	}
	return sw, c
}

func TestCtrlPlaneMitMRegWriteRewrite(t *testing.T) {
	sw, c := buildVictim(t, true)
	mitm := &CtrlPlaneMitM{
		RewriteRegWrite: func(reg string, index uint32, value uint64) uint64 {
			if reg == "state" {
				return 666
			}
			return value
		},
	}
	// Name-keyed rewrites need the SDK-Driver boundary: above the SDK the
	// register is still a p4info ID.
	if err := sw.Host.Install(switchos.BoundarySDKDriver, mitm.Hooks()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteRegisterAPI("victim", "state", 0, 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := sw.Host.SW.RegisterRead("state", 0); v != 666 {
		t.Fatalf("state = %d, want attacker's 666", v)
	}
	if mitm.Rewritten == 0 || mitm.Seen == 0 {
		t.Errorf("counters: %+v", mitm)
	}
}

func TestCtrlPlaneMitMMessageRewriteCaughtByP4Auth(t *testing.T) {
	sw, c := buildVictim(t, false)
	mitm := &CtrlPlaneMitM{
		RewriteMessage: func(m *core.Message, toDataPlane bool) bool {
			if toDataPlane && m.Reg != nil && m.MsgType == core.MsgWriteReq {
				m.Reg.Value = 666
				return true
			}
			return false
		},
	}
	if err := sw.Host.Install(switchos.BoundarySDKDriver, mitm.Hooks()); err != nil {
		t.Fatal(err)
	}
	_, err := c.WriteRegister("victim", "state", 0, 1)
	if !errors.Is(err, controller.ErrTampered) {
		t.Fatalf("want ErrTampered, got %v", err)
	}
	if v, _ := sw.Host.SW.RegisterRead("state", 0); v != 0 {
		t.Fatalf("tampered write applied: %d", v)
	}
	if mitm.Rewritten != 1 {
		t.Errorf("rewritten = %d", mitm.Rewritten)
	}
}

func TestCtrlPlaneMitMReadResultRewrite(t *testing.T) {
	sw, c := buildVictim(t, true)
	if err := sw.Host.SW.RegisterWrite("state", 2, 50); err != nil {
		t.Fatal(err)
	}
	mitm := &CtrlPlaneMitM{
		RewriteReadResult: func(reg string, index uint32, value uint64) uint64 { return value * 10 },
	}
	if err := sw.Host.Install(switchos.BoundaryAgentSDK, mitm.Hooks()); err != nil {
		t.Fatal(err)
	}
	v, _, err := c.ReadRegisterAPI("victim", "state", 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 500 {
		t.Fatalf("controller saw %d, want inflated 500", v)
	}
}

func TestLinkMitMTapRewritesOnlyP4Auth(t *testing.T) {
	mitm := &LinkMitM{
		Rewrite: func(m *core.Message) bool {
			if m.Kx != nil {
				m.Kx.PK = 0
				return true
			}
			return false
		},
	}
	tap := mitm.Tap()

	// Non-P4Auth bytes pass through untouched.
	raw := []byte{0xD0, 1, 2, 3}
	if got := tap(raw); &got[0] != &raw[0] {
		t.Error("non-P4Auth packet should pass through unmodified")
	}

	// A kx message gets rewritten.
	m := &core.Message{
		Header: core.Header{HdrType: core.HdrKeyExch, MsgType: core.MsgADHKD1},
		Kx:     &core.KxPayload{PK: 0xFFFF},
	}
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out := tap(enc)
	dec, err := core.DecodeMessage(out)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kx.PK != 0 {
		t.Fatal("kx PK not rewritten")
	}
	if mitm.Rewritten != 1 || mitm.Seen != 2 {
		t.Errorf("counters: rewritten=%d seen=%d", mitm.Rewritten, mitm.Seen)
	}
}

func TestLinkMitMFixDigestStillFailsVerification(t *testing.T) {
	// A naive attacker recomputing the digest with a guessed key still
	// fails against the real key.
	dig := crypto.NewHalfSipHashDigester()
	const realKey = 0x1234
	m := &core.Message{
		Header: core.Header{HdrType: core.HdrFeedback, MsgType: core.MsgProbe},
		Aux:    []byte{0, 5, 0, 0, 0, 9},
	}
	if err := m.Sign(dig, realKey); err != nil {
		t.Fatal(err)
	}
	enc, _ := m.Encode()

	mitm := &LinkMitM{
		Rewrite:    func(mm *core.Message) bool { mm.Aux[5] = 1; return true },
		FixDigest:  true,
		GuessKey:   0x9999,
		DigestAlgo: dig,
	}
	out := mitm.Tap()(enc)
	dec, err := core.DecodeMessage(out)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Verify(dig, realKey) {
		t.Fatal("forged digest verified under the real key")
	}
	// But it does verify under the guess — showing the attack is a key
	// problem, not an encoding problem.
	if !dec.Verify(dig, 0x9999) {
		t.Fatal("attacker's own digest should be self-consistent")
	}
}

func TestReplayerRecordsAndTakes(t *testing.T) {
	r := &Replayer{Match: func(m *core.Message) bool { return m.MsgType == core.MsgWriteReq }}
	tap := r.Tap()
	w := &core.Message{Header: core.Header{HdrType: core.HdrRegister, MsgType: core.MsgWriteReq}, Reg: &core.RegPayload{Value: 9}}
	rd := &core.Message{Header: core.Header{HdrType: core.HdrRegister, MsgType: core.MsgReadReq}, Reg: &core.RegPayload{}}
	wb, _ := w.Encode()
	rb, _ := rd.Encode()
	tap(wb)
	tap(rb)
	if len(r.Recorded) != 1 {
		t.Fatalf("recorded %d, want only the write", len(r.Recorded))
	}
	got := r.Take()
	if got == nil {
		t.Fatal("take returned nil")
	}
	if r.Take() != nil {
		t.Fatal("second take should be nil")
	}
	// The recording must be a copy, not an alias.
	wb[0] = 0xFF
	if got[0] == 0xFF {
		t.Fatal("recording aliases the tapped buffer")
	}
}

func TestBruteForcerGuessesTriggerAlertsUntilThreshold(t *testing.T) {
	sw, c := buildVictim(t, false)
	_ = c
	ri, err := sw.Host.Info.RegisterByName("state")
	if err != nil {
		t.Fatal(err)
	}
	bf := &BruteForcer{Forged: &core.Message{
		Header: core.Header{HdrType: core.HdrRegister, MsgType: core.MsgWriteReq, SeqNum: 1000, KeyVersion: 2},
		Reg:    &core.RegPayload{RegID: ri.ID, Index: 0, Value: 31337},
	}}
	guesses, err := bf.Guesses(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	alerts := 0
	for _, g := range guesses {
		res, err := sw.Host.PacketOut(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, pin := range res.PacketIns {
			if m, err := core.DecodeMessage(pin); err == nil && m.HdrType == core.HdrAlert {
				alerts++
			}
		}
	}
	// Each wrong guess alerts until the DoS threshold caps the stream
	// (§VIII "Digest size" + "DoS"): with the default threshold of 64,
	// 100 guesses yield exactly 64 alerts.
	if alerts != 64 {
		t.Fatalf("alerts = %d, want threshold-capped 64", alerts)
	}
	if v, _ := sw.Host.SW.RegisterRead("state", 0); v != 0 {
		t.Fatal("a brute-force guess landed (1 in 2^32 odds per trial — investigate)")
	}
}
