package controller

import (
	"errors"
	"testing"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/pisa"
	"p4auth/internal/switchos"
)

func buildSwitch(t *testing.T, name string, insecure bool) *deploy.Switch {
	t.Helper()
	sw, err := deploy.Build(deploy.SwitchSpec{
		Name:     name,
		Ports:    4,
		Insecure: insecure,
		Registers: []*pisa.RegisterDef{
			{Name: "lat", Width: 32, Entries: 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// twoSwitchFabric builds two switches linked on port 1 of each, both
// registered with a controller.
func twoSwitchFabric(t *testing.T) (*Controller, *deploy.Switch, *deploy.Switch) {
	t.Helper()
	s1 := buildSwitch(t, "s1", false)
	s2 := buildSwitch(t, "s2", false)
	c := New(crypto.NewSeededRand(2024))
	if err := c.Register("s1", s1.Host, s1.Cfg, 50*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("s2", s2.Host, s2.Cfg, 50*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := c.ConnectSwitches("s1", 1, "s2", 1, 5*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	return c, s1, s2
}

func TestRegisterReadWriteUnderSeedKey(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	lat, err := c.WriteRegister("s1", "lat", 2, 999)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Error("latency must be positive")
	}
	v, _, err := c.ReadRegister("s1", "lat", 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 999 {
		t.Fatalf("read %d, want 999", v)
	}
	if dp, _ := s1.Host.SW.RegisterRead("lat", 2); dp != 999 {
		t.Fatalf("data plane holds %d", dp)
	}
}

func TestLocalKeyInitAndOperate(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	res, err := c.LocalKeyInit("s1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 4 {
		t.Errorf("local key init took %d messages, want 4 (Table III)", res.Messages)
	}
	if res.Bytes < 90 || res.Bytes > 130 {
		t.Errorf("local key init bytes = %d, want ~104 (Table III)", res.Bytes)
	}
	if res.RTT <= 0 {
		t.Error("RTT must be positive")
	}
	if !c.KeyEstablished("s1") {
		t.Fatal("local key not established")
	}
	// Operations continue under the fresh key.
	if _, err := c.WriteRegister("s1", "lat", 0, 5); err != nil {
		t.Fatal(err)
	}
	// Controller key agrees with the data plane's current slot (version 2
	// after EAK+ADHKD -> register v0).
	dp, err := s1.Host.SW.RegisterRead(core.RegKeysV0, core.KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	ctrlKey, ver, err := c.cfg.Load().switches["s1"].keys.Current(core.KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 2 || ctrlKey != dp {
		t.Fatalf("key disagreement: ctrl %#x v%d, dp %#x", ctrlKey, ver, dp)
	}
}

func TestLocalKeyUpdate(t *testing.T) {
	c, _, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	before, _, _ := c.cfg.Load().switches["s1"].keys.Current(core.KeyIndexLocal)
	res, err := c.LocalKeyUpdate("s1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 {
		t.Errorf("local key update took %d messages, want 2 (Table III)", res.Messages)
	}
	after, _, _ := c.cfg.Load().switches["s1"].keys.Current(core.KeyIndexLocal)
	if before == after {
		t.Error("key unchanged after update")
	}
	if _, err := c.WriteRegister("s1", "lat", 0, 6); err != nil {
		t.Fatal(err)
	}
}

func TestLocalKeyUpdateRequiresInit(t *testing.T) {
	c, _, _ := twoSwitchFabric(t)
	// Seed key counts as established (boot state), so drive an op first to
	// prove updates work straight from seed as well.
	if _, err := c.LocalKeyUpdate("s1"); err != nil {
		t.Fatalf("update from seed state should work: %v", err)
	}
}

func TestPortKeyInitAgreesAcrossSwitches(t *testing.T) {
	c, s1, s2 := twoSwitchFabric(t)
	for _, sw := range []string{"s1", "s2"} {
		if _, err := c.LocalKeyInit(sw); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.PortKeyInit("s1", 1, "s2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 5 {
		t.Errorf("port key init took %d messages, want 5 (Table III)", res.Messages)
	}
	if res.Bytes < 120 || res.Bytes > 160 {
		t.Errorf("port key init bytes = %d, want ~138 (Table III)", res.Bytes)
	}

	// Both data planes hold the same port key (first install -> version 1
	// -> odd register) and the controller does NOT know it.
	k1, err := s1.Host.SW.RegisterRead(core.RegKeysV1, 1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s2.Host.SW.RegisterRead(core.RegKeysV1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == 0 || k1 != k2 {
		t.Fatalf("port keys disagree: s1=%#x s2=%#x", k1, k2)
	}
	// Egress copies installed on both.
	e1, _ := s1.Host.SW.RegisterRead(core.RegEgKeysV1, 1)
	e2, _ := s2.Host.SW.RegisterRead(core.RegEgKeysV1, 1)
	if e1 != k1 || e2 != k2 {
		t.Fatalf("egress key copies disagree: %#x %#x (want %#x)", e1, e2, k1)
	}
}

func TestPortKeyUpdateDirectDPDP(t *testing.T) {
	c, s1, s2 := twoSwitchFabric(t)
	for _, sw := range []string{"s1", "s2"} {
		if _, err := c.LocalKeyInit(sw); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.PortKeyInit("s1", 1, "s2", 1); err != nil {
		t.Fatal(err)
	}
	before, _ := s1.Host.SW.RegisterRead(core.RegKeysV1, 1)

	res, err := c.PortKeyUpdate("s1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 3 {
		t.Errorf("port key update took %d messages, want 3 (Table III)", res.Messages)
	}
	// New key at version 2 -> even register, same on both switches,
	// different from the old one.
	k1, err := s1.Host.SW.RegisterRead(core.RegKeysV0, 1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s2.Host.SW.RegisterRead(core.RegKeysV0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == 0 || k1 != k2 {
		t.Fatalf("updated port keys disagree: s1=%#x s2=%#x", k1, k2)
	}
	if k1 == before {
		t.Error("port key unchanged by update")
	}
	v1, _ := s1.Host.SW.RegisterRead(core.RegVer, 1)
	v2, _ := s2.Host.SW.RegisterRead(core.RegVer, 1)
	if v1 != 2 || v2 != 2 {
		t.Errorf("port key versions = %d/%d, want 2/2", v1, v2)
	}
}

func TestInitAndUpdateAllKeys(t *testing.T) {
	c, _, _ := twoSwitchFabric(t)
	init, err := c.InitAllKeys()
	if err != nil {
		t.Fatal(err)
	}
	// Table III: 4m + 5n messages for m=2 switches, n=1 link.
	if init.Messages != 4*2+5*1 {
		t.Errorf("init messages = %d, want 13 (4m+5n)", init.Messages)
	}
	upd, err := c.UpdateAllKeys()
	if err != nil {
		t.Fatal(err)
	}
	// 2m + 3n.
	if upd.Messages != 2*2+3*1 {
		t.Errorf("update messages = %d, want 7 (2m+3n)", upd.Messages)
	}
	if upd.Bytes >= init.Bytes {
		t.Errorf("update bytes %d should be below init bytes %d", upd.Bytes, init.Bytes)
	}
}

func TestMitMOnReadResponseDetected(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteRegister("s1", "lat", 0, 50); err != nil {
		t.Fatal(err)
	}

	// The paper's Attack 1: a compromised switch OS rewrites the latency
	// the data plane reports (Fig. 9). With P4Auth the digest no longer
	// matches and the controller refuses the value.
	if err := s1.Host.Install(switchos.BoundaryAgentSDK, &switchos.Hooks{
		OnPacketIn: func(data []byte) []byte {
			m, err := core.DecodeMessage(data)
			if err != nil || m.Reg == nil {
				return data
			}
			m.Reg.Value = 5 // deflate the reported latency
			out, _ := m.Encode()
			return out
		},
	}); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.ReadRegister("s1", "lat", 0)
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("tampered response accepted: %v", err)
	}
}

func TestMitMOnWriteRequestDetectedByDataPlane(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Host.Install(switchos.BoundarySDKDriver, &switchos.Hooks{
		OnPacketOut: func(data []byte) []byte {
			m, err := core.DecodeMessage(data)
			if err != nil || m.Reg == nil {
				return data
			}
			m.Reg.Value = 9999
			out, _ := m.Encode()
			return out
		},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := c.WriteRegister("s1", "lat", 3, 10)
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("tampered write not flagged: %v", err)
	}
	if v, _ := s1.Host.SW.RegisterRead("lat", 3); v != 0 {
		t.Fatalf("tampered write applied: %d", v)
	}
	if len(c.Alerts()) == 0 {
		t.Fatal("no alert recorded")
	}
	if c.Alerts()[0].Reason != core.AlertBadDigest {
		t.Errorf("alert reason = %d", c.Alerts()[0].Reason)
	}
}

// TestSingleShotKMPTamperRaisesAlert: a key-exchange request altered
// inside the switch stack comes back as a verified alert. The
// single-shot flows must report it the way the register path and the
// resilient flows do: ErrTampered, the alert recorded, nothing left
// outstanding.
func TestSingleShotKMPTamperRaisesAlert(t *testing.T) {
	for _, tc := range []struct {
		name, victim string
		run          func(c *Controller) error
	}{
		{"local update", "s1", func(c *Controller) error {
			_, err := c.LocalKeyUpdate("s1")
			return err
		}},
		{"port init leg 3-4", "s2", func(c *Controller) error {
			_, err := c.PortKeyInit("s1", 1, "s2", 1)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, s1, s2 := twoSwitchFabric(t)
			for _, sw := range []string{"s1", "s2"} {
				if _, err := c.LocalKeyInit(sw); err != nil {
					t.Fatal(err)
				}
			}
			victim := map[string]*deploy.Switch{"s1": s1, "s2": s2}[tc.victim]
			if err := victim.Host.Install(switchos.BoundarySDKDriver, &switchos.Hooks{
				OnPacketOut: func(data []byte) []byte {
					m, err := core.DecodeMessage(data)
					if err != nil || m.Kx == nil {
						return data
					}
					m.Kx.Salt ^= 1
					out, _ := m.Encode()
					return out
				},
			}); err != nil {
				t.Fatal(err)
			}
			if err := tc.run(c); !errors.Is(err, ErrTampered) {
				t.Fatalf("tampered key exchange not flagged: %v", err)
			}
			alerts := c.Alerts()
			if len(alerts) != 1 || alerts[0].Switch != tc.victim || alerts[0].Reason != core.AlertBadDigest {
				t.Errorf("alerts = %+v, want one AlertBadDigest from %s", alerts, tc.victim)
			}
			if n, err := c.Outstanding(tc.victim); err != nil || n != 0 {
				t.Errorf("Outstanding(%s) = %d, %v, want 0", tc.victim, n, err)
			}
		})
	}
}

func TestNAckForUnknownRegister(t *testing.T) {
	c, _, _ := twoSwitchFabric(t)
	_, _, err := c.ReadRegister("s1", "nonexistent", 0)
	if err == nil {
		t.Fatal("expected error for unknown register")
	}
}

func TestInsecureBaselineAcceptsMitM(t *testing.T) {
	// The same attack against the DP-Reg-RW baseline succeeds — the gap
	// P4Auth closes.
	s := buildSwitch(t, "victim", true)
	c := New(crypto.NewSeededRand(1))
	if err := c.Register("victim", s.Host, s.Cfg, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Host.Install(switchos.BoundarySDKDriver, &switchos.Hooks{
		OnPacketOut: func(data []byte) []byte {
			m, err := core.DecodeMessage(data)
			if err != nil || m.Reg == nil {
				return data
			}
			m.Reg.Value = 9999
			out, _ := m.Encode()
			return out
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteRegisterInsecure("victim", "lat", 0, 10); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Host.SW.RegisterRead("lat", 0); v != 9999 {
		t.Fatalf("baseline should have accepted the tampered write, got %d", v)
	}
}

func TestP4RuntimeAPIBaseline(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	wLat, err := c.WriteRegisterAPI("s1", "lat", 1, 77)
	if err != nil {
		t.Fatal(err)
	}
	v, rLat, err := c.ReadRegisterAPI("s1", "lat", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 77 {
		t.Fatalf("API read %d, want 77", v)
	}
	// Fig. 19's asymmetry: API writes compose more fields than reads.
	if wLat <= rLat {
		t.Errorf("API write latency %v should exceed read latency %v", wLat, rLat)
	}
	_ = s1
}

func TestControllerErrors(t *testing.T) {
	c := New(crypto.NewSeededRand(1))
	if _, err := c.handle("ghost"); err == nil {
		t.Error("unknown switch must error")
	}
	if err := c.ConnectSwitches("a", 1, "b", 1, 0); err == nil {
		t.Error("connecting unknown switches must error")
	}
	if _, err := c.PortKeyUpdate("ghost", 1); err == nil {
		t.Error("port update on unknown switch must error")
	}
	s := buildSwitch(t, "solo", false)
	if err := c.Register("solo", s.Host, s.Cfg, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("solo", s.Host, s.Cfg, 0); err == nil {
		t.Error("duplicate registration must error")
	}
	if _, err := c.PortKeyUpdate("solo", 1); err == nil {
		t.Error("port update without adjacency must error")
	}
	if _, err := c.Outstanding("ghost"); err == nil {
		t.Error("outstanding on unknown switch must error")
	}
}

func TestStatsAccumulate(t *testing.T) {
	c, _, _ := twoSwitchFabric(t)
	if _, err := c.WriteRegister("s1", "lat", 0, 1); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.MessagesSent != 1 || st.MessagesRecvd != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesSent == 0 || st.BytesRecvd == 0 {
		t.Errorf("byte stats = %+v", st)
	}
}
