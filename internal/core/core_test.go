package core

import (
	"testing"

	"p4auth/internal/crypto"
	"p4auth/internal/p4rt"
	"p4auth/internal/pisa"
)

// testEnv is a one-switch P4Auth deployment: a minimal host program with
// one exposed register, compiled for Tofino, booted with the seed key.
type testEnv struct {
	sw  *pisa.Switch
	cfg Config
	dig crypto.Digester
	seq *SeqTracker
	ks  *KeyStore // controller-side keys
}

func hostProgram() *pisa.Program {
	return &pisa.Program{
		Name:         "core_test_host",
		Headers:      []*pisa.HeaderDef{PTypeHeader()},
		Parser:       []pisa.ParserState{{Name: pisa.ParserStart, Extract: HdrPType}},
		DeparseOrder: []string{HdrPType},
		Registers: []*pisa.RegisterDef{
			{Name: "lat", Width: 32, Entries: 8},
			{Name: "split", Width: 64, Entries: 4},
		},
	}
}

func newEnv(t *testing.T, mutate func(*Config)) *testEnv {
	t.Helper()
	cfg := DefaultConfig(4, DigestCRC32)
	if mutate != nil {
		mutate(&cfg)
	}
	prog := hostProgram()
	if err := AddToProgram(prog, cfg, Integration{Exposed: []string{"lat", "split"}}); err != nil {
		t.Fatal(err)
	}
	sw, err := pisa.NewSwitch(prog, pisa.TofinoProfile(), pisa.WithRandom(crypto.NewSeededRand(777)))
	if err != nil {
		t.Fatal(err)
	}
	if err := Boot(sw, cfg); err != nil {
		t.Fatal(err)
	}
	dig, err := cfg.Digester()
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{sw: sw, cfg: cfg, dig: dig, seq: NewSeqTracker(), ks: NewKeyStore(cfg.Ports, cfg.Seed)}
}

// send injects a message on the CPU port and returns decoded CPU-port
// responses.
func (e *testEnv) send(t *testing.T, m *Message) []*Message {
	t.Helper()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.sw.Process(pisa.Packet{Data: data, Port: pisa.CPUPort})
	if err != nil {
		t.Fatal(err)
	}
	var out []*Message
	for _, em := range res.Emissions {
		if em.Port != pisa.CPUPort {
			continue
		}
		r, err := DecodeMessage(em.Data)
		if err != nil {
			t.Fatalf("decode response: %v", err)
		}
		out = append(out, r)
	}
	return out
}

// signedReg builds a signed register request under the controller's
// current local key.
func (e *testEnv) signedReg(t *testing.T, msgType uint8, regID uint32, index uint32, value uint64) *Message {
	t.Helper()
	key, ver, err := e.ks.Current(KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	m := &Message{
		Header: Header{HdrType: HdrRegister, MsgType: msgType, SeqNum: e.seq.Next(), KeyVersion: ver},
		Reg:    &RegPayload{RegID: regID, Index: index, Value: value},
	}
	if err := m.Sign(e.dig, key); err != nil {
		t.Fatal(err)
	}
	return m
}

func (e *testEnv) regID(t *testing.T, name string) uint32 {
	t.Helper()
	ri, err := p4rt.InfoOf(e.sw.Compiled()).RegisterByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return ri.ID
}

func (e *testEnv) verifyResponse(t *testing.T, r *Message) {
	t.Helper()
	key, err := e.ks.At(KeyIndexLocal, r.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verify(e.dig, key) {
		t.Fatalf("response digest invalid: %+v", r)
	}
	if err := e.seq.Settle(r.SeqNum); err != nil {
		t.Fatal(err)
	}
}

func TestAuthenticatedRegisterWriteAndRead(t *testing.T) {
	e := newEnv(t, nil)
	latID := e.regID(t, "lat")

	resp := e.send(t, e.signedReg(t, MsgWriteReq, latID, 3, 777))
	if len(resp) != 1 || resp[0].MsgType != MsgAck {
		t.Fatalf("write response = %+v", resp)
	}
	e.verifyResponse(t, resp[0])
	if v, _ := e.sw.RegisterRead("lat", 3); v != 777 {
		t.Fatalf("data plane register = %d, want 777", v)
	}

	resp = e.send(t, e.signedReg(t, MsgReadReq, latID, 3, 0))
	if len(resp) != 1 || resp[0].MsgType != MsgAck {
		t.Fatalf("read response = %+v", resp)
	}
	if resp[0].Reg.Value != 777 {
		t.Fatalf("read value = %d, want 777", resp[0].Reg.Value)
	}
	e.verifyResponse(t, resp[0])
}

func TestTamperedRequestRaisesAlertAndIsNotApplied(t *testing.T) {
	e := newEnv(t, nil)
	latID := e.regID(t, "lat")
	m := e.signedReg(t, MsgWriteReq, latID, 0, 10)
	m.Reg.Value = 9999 // MitM rewrites the value after signing

	resp := e.send(t, m)
	if len(resp) != 1 {
		t.Fatalf("want one alert, got %+v", resp)
	}
	a := resp[0]
	if a.HdrType != HdrAlert || a.MsgType != AlertBadDigest {
		t.Fatalf("alert = %+v", a)
	}
	// Alerts are authenticated too.
	key, _, _ := e.ks.Current(KeyIndexLocal)
	if !a.Verify(e.dig, key) {
		t.Fatal("alert digest invalid")
	}
	// The tampered write must not have reached the register.
	if v, _ := e.sw.RegisterRead("lat", 0); v != 0 {
		t.Fatalf("tampered write applied: %d", v)
	}
}

func TestReplayRejected(t *testing.T) {
	e := newEnv(t, nil)
	latID := e.regID(t, "lat")
	m := e.signedReg(t, MsgWriteReq, latID, 1, 42)

	resp := e.send(t, m)
	if resp[0].MsgType != MsgAck {
		t.Fatalf("first send: %+v", resp[0])
	}
	// Attacker records and replays the same (validly signed) message.
	if err := e.sw.RegisterWrite("lat", 1, 0); err != nil {
		t.Fatal(err)
	}
	resp = e.send(t, m)
	if len(resp) != 1 || resp[0].HdrType != HdrAlert || resp[0].MsgType != AlertReplay {
		t.Fatalf("replay response = %+v", resp)
	}
	if v, _ := e.sw.RegisterRead("lat", 1); v != 0 {
		t.Fatalf("replayed write applied: %d", v)
	}
}

func TestOldSeqRejected(t *testing.T) {
	e := newEnv(t, nil)
	latID := e.regID(t, "lat")
	// Advance the data-plane high-water mark.
	e.send(t, e.signedReg(t, MsgWriteReq, latID, 0, 1))
	e.send(t, e.signedReg(t, MsgWriteReq, latID, 0, 2))
	// Craft a validly-signed message with an old sequence number.
	key, ver, _ := e.ks.Current(KeyIndexLocal)
	m := &Message{
		Header: Header{HdrType: HdrRegister, MsgType: MsgWriteReq, SeqNum: 1, KeyVersion: ver},
		Reg:    &RegPayload{RegID: latID, Index: 0, Value: 99},
	}
	if err := m.Sign(e.dig, key); err != nil {
		t.Fatal(err)
	}
	resp := e.send(t, m)
	if resp[0].MsgType != AlertReplay {
		t.Fatalf("old-seq response = %+v", resp[0])
	}
}

func TestUnknownRegisterNAck(t *testing.T) {
	e := newEnv(t, nil)
	resp := e.send(t, e.signedReg(t, MsgReadReq, 0xdeadbeef, 0, 0))
	if len(resp) != 1 || resp[0].MsgType != MsgNAck {
		t.Fatalf("response = %+v", resp)
	}
	e.verifyResponse(t, resp[0])
}

func TestAlertThresholdCapsDoS(t *testing.T) {
	threshold := uint64(5)
	e := newEnv(t, func(c *Config) { c.AlertThreshold = threshold })
	latID := e.regID(t, "lat")
	alerts := 0
	for i := 0; i < 20; i++ {
		m := e.signedReg(t, MsgWriteReq, latID, 0, 1)
		m.Digest ^= 0xFFFF // garbage digest
		alerts += len(e.send(t, m))
	}
	if alerts != int(threshold) {
		t.Fatalf("got %d alerts for 20 tampered messages, want threshold %d", alerts, threshold)
	}
}

func TestEAKDerivesSharedAuthKey(t *testing.T) {
	e := newEnv(t, nil)
	eak := NewEAK(e.cfg, crypto.NewSeededRand(5))
	key, ver, _ := e.ks.Current(KeyIndexLocal)
	m := &Message{
		Header: Header{HdrType: HdrKeyExch, MsgType: MsgEAKSalt1, SeqNum: e.seq.Next(), KeyVersion: ver},
		Kx:     &KxPayload{Salt: eak.S1},
	}
	if err := m.Sign(e.dig, key); err != nil {
		t.Fatal(err)
	}
	resp := e.send(t, m)
	if len(resp) != 1 || resp[0].MsgType != MsgEAKSalt2 {
		t.Fatalf("EAK response = %+v", resp)
	}
	// The response is signed under the seed key, version tag unchanged.
	if !resp[0].Verify(e.dig, key) {
		t.Fatal("EAK response digest invalid")
	}
	if err := e.seq.Settle(resp[0].SeqNum); err != nil {
		t.Fatal(err)
	}

	kauth, err := eak.Complete(resp[0].Kx.Salt)
	if err != nil {
		t.Fatal(err)
	}
	// The data plane must have installed the same K_auth at the inactive
	// version slot (boot version 0 -> new version 1).
	dp, err := e.sw.RegisterRead(RegKeysV1, KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	if dp != kauth {
		t.Fatalf("controller K_auth %#x != data plane %#x", kauth, dp)
	}
	if v, _ := e.sw.RegisterRead(RegVer, KeyIndexLocal); v != 1 {
		t.Fatalf("data plane key version = %d, want 1", v)
	}
	// Egress copy installed too.
	if eg, _ := e.sw.RegisterRead(RegEgKeysV1, KeyIndexLocal); eg != kauth {
		t.Fatalf("egress key copy %#x != %#x", eg, kauth)
	}
}

// runLocalInit drives EAK + ADHKD, returning the established local key.
func runLocalInit(t *testing.T, e *testEnv) uint64 {
	t.Helper()
	// EAK.
	eak := NewEAK(e.cfg, crypto.NewSeededRand(5))
	key, ver, _ := e.ks.Current(KeyIndexLocal)
	m := &Message{
		Header: Header{HdrType: HdrKeyExch, MsgType: MsgEAKSalt1, SeqNum: e.seq.Next(), KeyVersion: ver},
		Kx:     &KxPayload{Salt: eak.S1},
	}
	if err := m.Sign(e.dig, key); err != nil {
		t.Fatal(err)
	}
	resp := e.send(t, m)
	if len(resp) != 1 || resp[0].MsgType != MsgEAKSalt2 {
		t.Fatalf("EAK response = %+v", resp)
	}
	if err := e.seq.Settle(resp[0].SeqNum); err != nil {
		t.Fatal(err)
	}
	kauth, err := eak.Complete(resp[0].Kx.Salt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ks.Install(KeyIndexLocal, kauth); err != nil {
		t.Fatal(err)
	}

	// ADHKD under K_auth.
	adhkd := NewADHKD(e.cfg, crypto.NewSeededRand(6))
	key, ver, _ = e.ks.Current(KeyIndexLocal)
	m = &Message{
		Header: Header{HdrType: HdrKeyExch, MsgType: MsgADHKD1, SeqNum: e.seq.Next(), KeyVersion: ver},
		Kx:     &KxPayload{PK: adhkd.PK1(), Salt: adhkd.S1},
	}
	if err := m.Sign(e.dig, key); err != nil {
		t.Fatal(err)
	}
	resp = e.send(t, m)
	if len(resp) != 1 || resp[0].MsgType != MsgADHKD2 {
		t.Fatalf("ADHKD response = %+v", resp)
	}
	if !resp[0].Verify(e.dig, kauth) {
		t.Fatal("ADHKD2 not signed under K_auth")
	}
	if err := e.seq.Settle(resp[0].SeqNum); err != nil {
		t.Fatal(err)
	}
	klocal, err := adhkd.Complete(resp[0].Kx.PK, resp[0].Kx.Salt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ks.Install(KeyIndexLocal, klocal); err != nil {
		t.Fatal(err)
	}
	return klocal
}

func TestLocalKeyInitEndToEnd(t *testing.T) {
	e := newEnv(t, nil)
	klocal := runLocalInit(t, e)

	// Data plane agrees (version 2 -> slot v0).
	dp, err := e.sw.RegisterRead(RegKeysV0, KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	if dp != klocal {
		t.Fatalf("controller K_local %#x != data plane %#x", klocal, dp)
	}
	if v, _ := e.sw.RegisterRead(RegVer, KeyIndexLocal); v != 2 {
		t.Fatalf("key version = %d, want 2", v)
	}

	// Register ops now run under K_local.
	latID := e.regID(t, "lat")
	resp := e.send(t, e.signedReg(t, MsgWriteReq, latID, 2, 123))
	if resp[0].MsgType != MsgAck {
		t.Fatalf("write under K_local: %+v", resp[0])
	}
	e.verifyResponse(t, resp[0])

	// An attacker who observed the exchange but lacks the KDF
	// personalization cannot forge: messages signed with the passively
	// recovered pre-master secret are rejected.
	m := e.signedReg(t, MsgWriteReq, latID, 2, 666)
	m.Digest ^= 1
	r := e.send(t, m)
	if r[0].HdrType != HdrAlert {
		t.Fatal("forged message accepted after key init")
	}
}

func TestLocalKeyUpdateRollsVersion(t *testing.T) {
	e := newEnv(t, nil)
	runLocalInit(t, e)

	// Local key update = another ADHKD under the current local key.
	adhkd := NewADHKD(e.cfg, crypto.NewSeededRand(9))
	key, ver, _ := e.ks.Current(KeyIndexLocal)
	m := &Message{
		Header: Header{HdrType: HdrKeyExch, MsgType: MsgADHKD1, SeqNum: e.seq.Next(), KeyVersion: ver},
		Kx:     &KxPayload{PK: adhkd.PK1(), Salt: adhkd.S1},
	}
	if err := m.Sign(e.dig, key); err != nil {
		t.Fatal(err)
	}
	resp := e.send(t, m)
	if len(resp) != 1 || resp[0].MsgType != MsgADHKD2 {
		t.Fatalf("update response = %+v", resp)
	}
	// Response still signed under the old key (consistent updates).
	if !resp[0].Verify(e.dig, key) {
		t.Fatal("update response not signed under the pre-update key")
	}
	newKey, err := adhkd.Complete(resp[0].Kx.PK, resp[0].Kx.Salt)
	if err != nil {
		t.Fatal(err)
	}
	if newKey == key {
		t.Fatal("key update produced the same key")
	}
	if _, err := e.ks.Install(KeyIndexLocal, newKey); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.sw.RegisterRead(RegVer, KeyIndexLocal); v != 3 {
		t.Fatalf("key version = %d, want 3", v)
	}
	// Old-version traffic still validates during rollover: sign with the
	// previous key and its version tag.
	latID := e.regID(t, "lat")
	old := &Message{
		Header: Header{HdrType: HdrRegister, MsgType: MsgWriteReq, SeqNum: e.seq.Next(), KeyVersion: ver},
		Reg:    &RegPayload{RegID: latID, Index: 0, Value: 5},
	}
	if err := old.Sign(e.dig, key); err != nil {
		t.Fatal(err)
	}
	r := e.send(t, old)
	if r[0].MsgType != MsgAck {
		t.Fatalf("in-flight old-version message rejected during rollover: %+v", r[0])
	}
}

func TestInsecureBaselineSkipsChecks(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.Insecure = true })
	latID := e.regID(t, "lat")
	// No digest at all — the DP-Reg-RW baseline accepts it.
	m := &Message{
		Header: Header{HdrType: HdrRegister, MsgType: MsgWriteReq, SeqNum: 1},
		Reg:    &RegPayload{RegID: latID, Index: 0, Value: 31337},
	}
	resp := e.send(t, m)
	if len(resp) != 1 || resp[0].MsgType != MsgAck {
		t.Fatalf("insecure write response = %+v", resp)
	}
	if v, _ := e.sw.RegisterRead("lat", 0); v != 31337 {
		t.Fatal("insecure write not applied")
	}
}

func TestCompileOnBothTargets(t *testing.T) {
	for _, tc := range []struct {
		profile pisa.Profile
		kind    DigestKind
	}{
		{pisa.TofinoProfile(), DigestCRC32},
		{pisa.BMv2Profile(), DigestHalfSipHash},
	} {
		t.Run(tc.profile.Name, func(t *testing.T) {
			prog := hostProgram()
			cfg := DefaultConfig(16, tc.kind)
			if err := AddToProgram(prog, cfg, Integration{Exposed: []string{"lat"}}); err != nil {
				t.Fatal(err)
			}
			c, err := pisa.Compile(prog, tc.profile)
			if err != nil {
				t.Fatal(err)
			}
			pct := c.Usage.Percent(tc.profile)
			if tc.profile.Name == "tofino" {
				if pct.Hash < 20 || pct.Hash > 90 {
					t.Errorf("hash usage %.1f%%, expected the paper's heavy-hash regime", pct.Hash)
				}
				if c.Usage.Passes > tc.profile.MaxPasses {
					t.Errorf("passes = %d > max %d", c.Usage.Passes, tc.profile.MaxPasses)
				}
			}
		})
	}
}

func TestHalfSipHashTargetRejectsTofino(t *testing.T) {
	prog := hostProgram()
	cfg := DefaultConfig(4, DigestHalfSipHash)
	if err := AddToProgram(prog, cfg, Integration{}); err != nil {
		t.Fatal(err)
	}
	if _, err := pisa.Compile(prog, pisa.TofinoProfile()); err == nil {
		t.Fatal("HalfSipHash extern must not compile for Tofino (§VII)")
	}
}

func TestAddToProgramValidation(t *testing.T) {
	cfg := DefaultConfig(4, DigestCRC32)
	// Missing ptype header.
	bad := &pisa.Program{Name: "x"}
	if err := AddToProgram(bad, cfg, Integration{}); err == nil {
		t.Error("expected ptype requirement error")
	}
	// Unknown exposed register.
	prog := hostProgram()
	if err := AddToProgram(prog, cfg, Integration{Exposed: []string{"ghost"}}); err == nil {
		t.Error("expected unknown-register error")
	}
	// Bad config.
	prog2 := hostProgram()
	if err := AddToProgram(prog2, Config{}, Integration{}); err == nil {
		t.Error("expected config validation error")
	}
}
