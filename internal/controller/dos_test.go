package controller

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"p4auth/internal/attacker"
	"p4auth/internal/core"
	"p4auth/internal/deploy"
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

// floodRequests is how many tampered requests TestAlertFlood drives: s1
// takes three of every four, s2 the fourth.
const floodRequests = 100_000

// TestAlertFlood is the §VIII adversary at volume: an in-stack MitM on
// both switches flips the value of every register write, so each one is
// answered by an authenticated AlertBadDigest. The operator resets each
// switch's data-plane alert window before it reaches the threshold, so
// every tampered request draws its alert. The controller must count
// every one, per switch, and keep counting them after it quarantines a
// switch, while it retains only the newest maxAlerts: its live heap may
// not grow with the flood.
func TestAlertFlood(t *testing.T) {
	c, s1, s2 := twoSwitchFabric(t)
	for _, sw := range []string{"s1", "s2"} {
		if _, err := c.LocalKeyInit(sw); err != nil {
			t.Fatal(err)
		}
	}
	tamper := true
	for _, dev := range []*deploy.Switch{s1, s2} {
		mitm := &attacker.CtrlPlaneMitM{
			RewriteMessage: func(m *core.Message, toDataPlane bool) bool {
				if !tamper || !toDataPlane || m.Reg == nil {
					return false
				}
				m.Reg.Value ^= 0x5A5A
				return true
			},
		}
		if err := dev.Host.Install(switchos.BoundaryAgentSDK, mitm.Hooks()); err != nil {
			t.Fatal(err)
		}
	}
	window := int(s1.Cfg.AlertThreshold) / 2
	sent := map[string]int{}
	var heapAt10k uint64
	for i := 0; i < floodRequests; i++ {
		if i == 10_000 {
			heapAt10k = liveHeap()
		}
		sw := "s1"
		if i%4 == 3 {
			sw = "s2"
		}
		if _, err := c.WriteRegister(sw, "lat", uint32(i%8), uint64(i)); !errors.Is(err, ErrTampered) {
			t.Fatalf("request %d to %s: err = %v, want ErrTampered", i, sw, err)
		}
		if sent[sw]++; sent[sw]%window == 0 {
			tamper = false
			if _, err := c.ResetAlertWindow(sw); err != nil {
				t.Fatal(err)
			}
			tamper = true
		}
	}
	if grown := int64(liveHeap()) - int64(heapAt10k); grown >= 64<<10 {
		t.Errorf("live heap grew %d B from 10k to %d alerts, want under 64 KiB", grown, floodRequests)
	}
	if err := c.Quarantine("s2"); err != nil {
		t.Fatal(err)
	}
	if got, s1n, s2n := c.AlertCount(), c.SwitchAlertCount("s1"), c.SwitchAlertCount("s2"); got != floodRequests ||
		s1n != 3*floodRequests/4 || s2n != floodRequests/4 {
		t.Fatalf("%d alerts (s1 %d, s2 %d), want %d (s1 %d, s2 %d)",
			got, s1n, s2n, floodRequests, 3*floodRequests/4, floodRequests/4)
	}
	alerts := c.Alerts()
	if len(alerts) != maxAlerts {
		t.Fatalf("%d alerts retained, want %d", len(alerts), maxAlerts)
	}
	// The window is the newest alerts, oldest first: s2 drew every fourth.
	for j, a := range alerts {
		wantSw := "s1"
		if (floodRequests-maxAlerts+j)%4 == 3 {
			wantSw = "s2"
		}
		if a.Reason != core.AlertBadDigest || a.Switch != wantSw {
			t.Fatalf("retained alert %d = %+v, want AlertBadDigest from %s", j, a, wantSw)
		}
	}
	if ind := c.CheckDoS(0); len(ind) != 1 || ind[0].Switch != "s1" || ind[0].Alerts != 3*floodRequests/4 {
		t.Fatalf("CheckDoS = %+v, want s1 with %d alerts", ind, 3*floodRequests/4)
	}
}

// liveHeap returns HeapAlloc after two forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestAlertLogConcurrent: alerts noted from two switches' exchanges at
// once, beside readers of the window and the counts, are all counted.
func TestAlertLogConcurrent(t *testing.T) {
	c, s1, s2 := twoSwitchFabric(t)
	const perSwitch = 2000
	var wg sync.WaitGroup
	for _, sw := range []struct {
		name string
		dev  *deploy.Switch
	}{{"s1", s1}, {"s2", s2}} {
		if _, err := c.LocalKeyInit(sw.name); err != nil {
			t.Fatal(err)
		}
		tamper := true // touched only by this switch's writer and its hooks
		mitm := &attacker.CtrlPlaneMitM{
			RewriteMessage: func(m *core.Message, toDataPlane bool) bool {
				if !tamper || !toDataPlane || m.Reg == nil {
					return false
				}
				m.Reg.Value ^= 1
				return true
			},
		}
		if err := sw.dev.Host.Install(switchos.BoundaryAgentSDK, mitm.Hooks()); err != nil {
			t.Fatal(err)
		}
		window := int(sw.dev.Cfg.AlertThreshold) / 2
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perSwitch; i++ {
				if _, err := c.WriteRegister(sw.name, "lat", 0, uint64(i)); !errors.Is(err, ErrTampered) {
					t.Errorf("%s write %d: err = %v, want ErrTampered", sw.name, i, err)
					return
				}
				if i%window == 0 {
					tamper = false
					if _, err := c.ResetAlertWindow(sw.name); err != nil {
						t.Error(err)
						return
					}
					tamper = true
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		if n := len(c.Alerts()); n > maxAlerts {
			t.Fatalf("%d alerts retained, over the bound %d", n, maxAlerts)
		}
		if per, total := c.SwitchAlertCount("s1")+c.SwitchAlertCount("s2"), c.AlertCount(); per > total {
			t.Fatalf("per-switch counts %d exceed the total %d read after them", per, total)
		}
		c.CheckDoS(0)
	}
	if got, a, b := c.AlertCount(), c.SwitchAlertCount("s1"), c.SwitchAlertCount("s2"); got != 2*perSwitch || a != perSwitch || b != perSwitch {
		t.Fatalf("AlertCount %d (s1 %d, s2 %d), want %d (%d each)", got, a, b, 2*perSwitch, perSwitch)
	}
}
