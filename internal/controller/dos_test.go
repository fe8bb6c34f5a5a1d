package controller

import (
	"errors"
	"fmt"
	"testing"

	"p4auth/internal/core"
	"p4auth/internal/switchos"
)

func TestResetAlertWindowRestoresAlerting(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	// Exhaust the data-plane alert budget with garbage messages.
	threshold := s1.Cfg.AlertThreshold
	garbage := &core.Message{
		Header: core.Header{HdrType: core.HdrRegister, MsgType: core.MsgWriteReq, SeqNum: 10_000, Digest: 0xBAD},
		Reg:    &core.RegPayload{RegID: 1},
	}
	enc, err := garbage.Encode()
	if err != nil {
		t.Fatal(err)
	}
	alerts := 0
	for i := uint64(0); i < threshold+20; i++ {
		res, err := s1.Host.PacketOut(enc)
		if err != nil {
			t.Fatal(err)
		}
		alerts += len(res.PacketIns)
	}
	if alerts != int(threshold) {
		t.Fatalf("alerts = %d, want threshold %d", alerts, threshold)
	}
	// Further garbage is silently dropped...
	res, err := s1.Host.PacketOut(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PacketIns) != 0 {
		t.Fatal("alert budget not exhausted")
	}
	// ...until the controller resets the window (authenticated write to
	// the always-exposed alert counter).
	if _, err := c.ResetAlertWindow("s1"); err != nil {
		t.Fatal(err)
	}
	res, err = s1.Host.PacketOut(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PacketIns) != 1 {
		t.Fatal("alerting not restored after window reset")
	}
}

func TestCheckDoSOnResponseSuppression(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	// An adversary silently drops all PacketIns — responses vanish.
	if err := s1.Host.Install(switchos.BoundaryAgentSDK, &switchos.Hooks{
		OnPacketIn: func(data []byte) []byte { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		_, err := c.WriteRegister("s1", "lat", 0, uint64(i))
		if err == nil {
			t.Fatal("suppressed response should fail the write")
		}
	}
	out, err := c.Outstanding("s1")
	if err != nil {
		t.Fatal(err)
	}
	if out < 10 {
		t.Fatalf("outstanding = %d, want >= 10", out)
	}
	ind := c.CheckDoS(5)
	if len(ind) != 1 || ind[0].Switch != "s1" {
		t.Fatalf("indicators = %+v", ind)
	}
	// Operator action: quarantine.
	if err := c.Quarantine("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteRegister("s1", "lat", 0, 1); err == nil {
		t.Fatal("quarantined switch still reachable")
	}
	if err := c.Quarantine("s1"); err == nil {
		t.Fatal("double quarantine should error")
	}
	// s2 unaffected.
	if _, err := c.WriteRegister("s2", "lat", 0, 1); err != nil {
		t.Fatalf("healthy switch affected: %v", err)
	}
}

func TestWriteAfterQuarantineOfPeerStillWorksOnFabric(t *testing.T) {
	c, _, _ := twoSwitchFabric(t)
	if _, err := c.InitAllKeys(); err != nil {
		t.Fatal(err)
	}
	if err := c.Quarantine("s2"); err != nil {
		t.Fatal(err)
	}
	// Port-key ops involving s2 now fail cleanly.
	if _, err := c.PortKeyUpdate("s1", 1); err == nil {
		t.Fatal("port update across a quarantined link should fail")
	}
	// Local operations on s1 still work.
	if _, err := c.LocalKeyUpdate("s1"); err != nil {
		t.Fatal(err)
	}
}

func TestErrTamperedWrapping(t *testing.T) {
	// The sentinel must be detectable through wrapped errors.
	err := fmt.Errorf("outer: %w", ErrTampered)
	if !errors.Is(err, ErrTampered) {
		t.Fatal("wrapped ErrTampered not detected")
	}
}

// TestLostResponseDesyncAndRecovery exercises the protocol's one liveness
// gap and its recovery path: a key-exchange response is lost, the
// controller retries, version counters drift until the tag bit stops
// selecting a shared key, and Reinitialize restores service.
func TestLostResponseDesyncAndRecovery(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}

	// Drop exactly one PacketIn: the ADHKD2 of the next update.
	drops := 1
	if err := s1.Host.Install(switchos.BoundaryAgentSDK, &switchos.Hooks{
		OnPacketIn: func(data []byte) []byte {
			if drops > 0 {
				drops--
				return nil
			}
			return data
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LocalKeyUpdate("s1"); err == nil {
		t.Fatal("update with a dropped response should fail at the controller")
	}
	// The data plane installed the new key anyway; the controller is one
	// version behind. Two-version tagging keeps plain traffic working:
	if _, err := c.WriteRegister("s1", "lat", 0, 1); err != nil {
		t.Fatalf("grace-period write failed: %v", err)
	}

	// Retry the update: succeeds at protocol level but leaves the version
	// counters bit-misaligned (controller v3, data plane v4).
	if _, err := c.LocalKeyUpdate("s1"); err != nil {
		t.Fatalf("retried update: %v", err)
	}
	_, err := c.WriteRegister("s1", "lat", 0, 2)
	if err == nil {
		t.Fatal("expected desync after loss+retry (if this starts passing, the protocol gained self-sync — update the docs)")
	}

	// Operator recovery.
	if _, err := c.Reinitialize("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteRegister("s1", "lat", 0, 3); err != nil {
		t.Fatalf("write after reinitialize: %v", err)
	}
	if v, _ := s1.Host.SW.RegisterRead("lat", 0); v != 3 {
		t.Fatalf("lat = %d", v)
	}
}
