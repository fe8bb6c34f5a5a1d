package app

import (
	"errors"
	"testing"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/pisa"
)

// shell is a ptype-only host program with two registers, "r" and "s".
func shell() *pisa.Program {
	return &pisa.Program{
		Name:         "app_test",
		Headers:      []*pisa.HeaderDef{core.PTypeHeader()},
		Parser:       []pisa.ParserState{{Name: pisa.ParserStart, Extract: core.HdrPType}},
		DeparseOrder: []string{core.HdrPType},
		Registers: []*pisa.RegisterDef{
			{Name: "r", Width: 32, Entries: 4},
			{Name: "s", Width: 32, Entries: 4},
		},
	}
}

func build(t *testing.T, mode Mode, profile pisa.Profile) *App {
	t.Helper()
	a, err := New(shell(), Spec{Name: "sw", Mode: mode, Profile: profile, Ports: 4, Exposed: []string{"r", "s"}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if mode == ModeP4Auth {
		if _, err := a.Ctrl.LocalKeyInit("sw"); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestModeOf(t *testing.T) {
	if ModeOf(true) != ModeP4Auth || ModeOf(false) != ModeInsecure {
		t.Errorf("ModeOf(true), ModeOf(false) = %d, %d", ModeOf(true), ModeOf(false))
	}
}

func TestNewRejectsUnknownMode(t *testing.T) {
	for _, mode := range []Mode{0, ModeAPI + 1, -1} {
		if _, err := New(shell(), Spec{Name: "sw", Mode: mode, Profile: pisa.TofinoProfile(), Ports: 4}); err == nil {
			t.Errorf("mode %d accepted", mode)
		}
	}
}

func TestNewFailures(t *testing.T) {
	// An exposed register the program does not declare fails the weave.
	if _, err := New(shell(), Spec{Name: "sw", Mode: ModeP4Auth, Profile: pisa.TofinoProfile(), Ports: 4, Exposed: []string{"nope"}}); err == nil {
		t.Error("unknown exposed register accepted")
	}
	// A program that does not compile for the profile fails.
	bad := shell()
	bad.Parser[0].Extract = "missing"
	if _, err := New(bad, Spec{Name: "sw", Mode: ModeP4Auth, Profile: pisa.TofinoProfile(), Ports: 4}); err == nil {
		t.Error("uncompilable program accepted")
	}
}

// TestDigestFollowsProfile: a profile that allows externs gets
// HalfSipHash, the others CRC32; the insecure mode turns P4Auth off.
func TestDigestFollowsProfile(t *testing.T) {
	if got := build(t, ModeP4Auth, pisa.BMv2Profile()).Cfg; got.Digest != core.DigestHalfSipHash || got.Insecure {
		t.Errorf("BMv2: digest %v insecure %v", got.Digest, got.Insecure)
	}
	if got := build(t, ModeInsecure, pisa.TofinoProfile()).Cfg; got.Digest != core.DigestCRC32 || !got.Insecure {
		t.Errorf("Tofino: digest %v insecure %v", got.Digest, got.Insecure)
	}
}

// TestReadWriteEveryMode round-trips a value over each mode's C-DP path.
func TestReadWriteEveryMode(t *testing.T) {
	for _, mode := range []Mode{ModeP4Auth, ModeInsecure, ModeAPI} {
		a := build(t, mode, pisa.TofinoProfile())
		if err := a.Write("r", 2, 41); err != nil {
			t.Fatalf("mode %d: write: %v", mode, err)
		}
		if v, err := a.Read("r", 2); err != nil || v != 41 {
			t.Errorf("mode %d: read = %d, %v; want 41", mode, v, err)
		}
	}
}

// TestRewrite: an update adversary alters writes to its registers only,
// a report adversary reads of its registers only, on the PacketOut and
// the API paths; P4Auth catches both.
func TestRewrite(t *testing.T) {
	for _, mode := range []Mode{ModeInsecure, ModeAPI, ModeP4Auth} {
		a := build(t, mode, pisa.TofinoProfile())
		if err := a.Rewrite(core.MsgWriteReq, []string{"r"}, func(i uint32, v uint64) (uint64, bool) {
			return v + 100, i == 1
		}); err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct {
			reg  string
			i    uint32
			want uint64
		}{{"r", 1, 105}, {"r", 0, 5}, {"s", 1, 5}} {
			err := a.Write(w.reg, w.i, 5)
			got, _ := a.Host.SW.RegisterRead(w.reg, int(w.i))
			if mode == ModeP4Auth && w.want != 5 {
				if !errors.Is(err, controller.ErrTampered) || got != 0 {
					t.Errorf("P4Auth: tampered write to %s[%d]: err %v, register %d", w.reg, w.i, err, got)
				}
				continue
			}
			if err != nil || got != w.want {
				t.Errorf("mode %d: write %s[%d]: err %v, register %d, want %d", mode, w.reg, w.i, err, got, w.want)
			}
		}

		if err := a.Rewrite(core.MsgAck, []string{"s"}, func(_ uint32, v uint64) (uint64, bool) {
			return v * 3, true
		}); err != nil {
			t.Fatal(err)
		}
		if err := a.Host.SW.RegisterWrite("r", 3, 7); err != nil {
			t.Fatal(err)
		}
		if err := a.Host.SW.RegisterWrite("s", 3, 7); err != nil {
			t.Fatal(err)
		}
		if v, err := a.Read("r", 3); err != nil || v != 7 {
			t.Errorf("mode %d: untouched read = %d, %v", mode, v, err)
		}
		v, err := a.Read("s", 3)
		if mode == ModeP4Auth {
			if !errors.Is(err, controller.ErrTampered) {
				t.Errorf("P4Auth: tampered read = %d, %v", v, err)
			}
		} else if err != nil || v != 21 {
			t.Errorf("mode %d: tampered read = %d, %v; want 21", mode, v, err)
		}
	}
}

func TestRewriteUnknownRegister(t *testing.T) {
	a := build(t, ModeInsecure, pisa.TofinoProfile())
	if err := a.Rewrite(core.MsgAck, []string{"nope"}, nil); err == nil {
		t.Error("unknown register accepted")
	}
}
