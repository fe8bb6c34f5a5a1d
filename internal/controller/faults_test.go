package controller

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/deploy"
	"p4auth/internal/netsim"
)

// resilientController builds the two-switch fabric with the resilient
// exchange engine enabled and a netsim clock driving backoff.
func resilientController(t *testing.T) (*Controller, *deploy.Switch, *deploy.Switch, *netsim.Sim) {
	t.Helper()
	c, s1, s2 := twoSwitchFabric(t)
	c.SetRetryPolicy(ResilientRetryPolicy())
	sim := netsim.NewSim()
	c.UseClock(sim)
	return c, s1, s2, sim
}

// assertLocalKeySync fails unless the controller's local-slot version and
// active key match the switch data plane's exactly.
func assertLocalKeySync(t *testing.T, c *Controller, sw *deploy.Switch, name string) {
	t.Helper()
	h := c.cfg.Load().switches[name]
	key, ver, err := h.keys.Current(core.KeyIndexLocal)
	if err != nil {
		t.Fatalf("%s: controller key state: %v", name, err)
	}
	dpVer, err := sw.Host.SW.RegisterRead(core.RegVer, core.KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	if uint8(dpVer) != ver {
		t.Fatalf("%s: version drift: controller=%d switch=%d", name, ver, dpVer)
	}
	reg := core.RegKeysV0
	if ver&1 == 1 {
		reg = core.RegKeysV1
	}
	dpKey, err := sw.Host.SW.RegisterRead(reg, core.KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	if dpKey != key {
		t.Fatalf("%s: active key mismatch at version %d: controller=%#x switch=%#x", name, ver, key, dpKey)
	}
}

// assertPortKeySync fails unless both ends of a link agree on the port
// slot's install counter and hold the same active port key.
func assertPortKeySync(t *testing.T, sa, sb *deploy.Switch, pa, pb int) {
	t.Helper()
	verA, err := sa.Host.SW.RegisterRead(core.RegVer, pa)
	if err != nil {
		t.Fatal(err)
	}
	verB, err := sb.Host.SW.RegisterRead(core.RegVer, pb)
	if err != nil {
		t.Fatal(err)
	}
	if verA != verB {
		t.Fatalf("port install counters diverged: a[%d]=%d b[%d]=%d", pa, verA, pb, verB)
	}
	reg := core.RegKeysV0
	if verA&1 == 1 {
		reg = core.RegKeysV1
	}
	keyA, err := sa.Host.SW.RegisterRead(reg, pa)
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := sb.Host.SW.RegisterRead(reg, pb)
	if err != nil {
		t.Fatal(err)
	}
	if keyA != keyB {
		t.Fatalf("active port keys differ at version %d: %#x vs %#x", verA, keyA, keyB)
	}
	if keyA == 0 {
		t.Fatal("port key never established")
	}
}

// tapAllChannels puts loss taps with distinct seeds on both directions of
// both control channels and both directions of the DP-DP link.
func tapAllChannels(t *testing.T, c *Controller, rate float64, seed uint64) {
	t.Helper()
	for i, sw := range []string{"s1", "s2"} {
		out := netsim.LossTap(rate, seed+uint64(i)*101)
		in := netsim.LossTap(rate, seed+uint64(i)*101+7)
		if err := c.SetControlTaps(sw, out, in); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetLinkTap("s1", 1, netsim.LossTap(rate, seed+55)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLinkTap("s2", 1, netsim.LossTap(rate, seed+56)); err != nil {
		t.Fatal(err)
	}
}

// TestKMPConvergesUnderLoss drives all four KMP flows through lossy
// channels at several rates and asserts full key agreement afterwards.
func TestKMPConvergesUnderLoss(t *testing.T) {
	for _, rate := range []float64{0.1, 0.2, 0.3} {
		for _, seed := range []uint64{1, 42, 2024} {
			t.Run(fmt.Sprintf("rate=%.1f/seed=%d", rate, seed), func(t *testing.T) {
				c, s1, s2, _ := resilientController(t)
				tapAllChannels(t, c, rate, seed)

				// LocalKeyInit + PortKeyInit for every switch and link.
				if _, err := c.InitAllKeys(); err != nil {
					t.Fatalf("InitAllKeys under %.0f%% loss: %v", rate*100, err)
				}
				assertLocalKeySync(t, c, s1, "s1")
				assertLocalKeySync(t, c, s2, "s2")
				assertPortKeySync(t, s1, s2, 1, 1)

				// LocalKeyUpdate + PortKeyUpdate for every switch and link.
				if _, err := c.UpdateAllKeys(); err != nil {
					t.Fatalf("UpdateAllKeys under %.0f%% loss: %v", rate*100, err)
				}
				assertLocalKeySync(t, c, s1, "s1")
				assertLocalKeySync(t, c, s2, "s2")
				assertPortKeySync(t, s1, s2, 1, 1)

				// The fabric must be fully operational on the rolled keys.
				if _, err := c.WriteRegister("s1", "lat", 3, 777); err != nil {
					t.Fatalf("write after lossy rollover: %v", err)
				}
				v, _, err := c.ReadRegister("s1", "lat", 3)
				if err != nil {
					t.Fatalf("read after lossy rollover: %v", err)
				}
				if v != 777 {
					t.Fatalf("read %d, want 777", v)
				}
			})
		}
	}
}

// TestKMPConvergesUnderCorruption runs the flows through bit-flipping taps
// (every 3rd packet corrupted in each direction). Corrupted requests bounce
// off the data plane's digest check as alerts; corrupted responses fail
// controller-side verification; both are retried with clean bytes.
func TestKMPConvergesUnderCorruption(t *testing.T) {
	c, s1, s2, _ := resilientController(t)
	for i, sw := range []string{"s1", "s2"} {
		if err := c.SetControlTaps(sw,
			netsim.CorruptTap(3, uint64(i)+10),
			netsim.CorruptTap(3, uint64(i)+20)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.InitAllKeys(); err != nil {
		t.Fatalf("InitAllKeys under corruption: %v", err)
	}
	if _, err := c.UpdateAllKeys(); err != nil {
		t.Fatalf("UpdateAllKeys under corruption: %v", err)
	}
	assertLocalKeySync(t, c, s1, "s1")
	assertLocalKeySync(t, c, s2, "s2")
	assertPortKeySync(t, s1, s2, 1, 1)
	if len(c.Alerts()) == 0 {
		t.Error("corrupted requests should have raised alerts")
	}
}

// TestInterruptedRolloverResyncs is the transactional-rollover guarantee:
// a rollover whose key-exchange responses are all eaten must leave the
// controller and the switch agreeing on the active key version — the
// switch's half-installed key is rolled back, not half-activated.
func TestInterruptedRolloverResyncs(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, FlowRetries: 2})

	// Drop only key-exchange PacketIns: the handshake's responses vanish
	// (after the switch has already installed), while the register reads
	// and the rollback write of the resync procedure still work.
	dropKx := func(data []byte) []byte {
		if hdrType, _, ok := core.PeekControl(data); ok && hdrType == core.HdrKeyExch {
			return nil
		}
		return data
	}
	if err := c.SetControlTaps("s1", nil, dropKx); err != nil {
		t.Fatal(err)
	}

	_, ctlVerBefore, err := c.cfg.Load().switches["s1"].keys.Current(core.KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LocalKeyUpdate("s1"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("update with all kx responses dropped: err=%v, want ErrTimeout", err)
	}

	// The acceptance property: no one-sided activation. The switch was
	// rolled back to the last mutually-known version.
	assertLocalKeySync(t, c, s1, "s1")
	_, ctlVerAfter, err := c.cfg.Load().switches["s1"].keys.Current(core.KeyIndexLocal)
	if err != nil {
		t.Fatal(err)
	}
	if ctlVerAfter != ctlVerBefore {
		t.Fatalf("controller version moved %d -> %d despite failed rollover", ctlVerBefore, ctlVerAfter)
	}

	// Still operational under the surviving key...
	if _, err := c.WriteRegister("s1", "lat", 1, 11); err != nil {
		t.Fatalf("write under surviving key: %v", err)
	}
	// ...and a clean channel completes the rollover where it left off.
	if err := c.SetControlTaps("s1", nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LocalKeyUpdate("s1"); err != nil {
		t.Fatalf("rollover after channel recovery: %v", err)
	}
	assertLocalKeySync(t, c, s1, "s1")
	if _, finalVer, _ := c.cfg.Load().switches["s1"].keys.Current(core.KeyIndexLocal); finalVer != ctlVerBefore+1 {
		t.Fatalf("final version %d, want %d", finalVer, ctlVerBefore+1)
	}
}

// TestPortUpdateInterruptedRealigns kills the second DP-DP leg of a port
// key update so only the responder installs, then checks the controller
// detects the one-sided install and rebuilds a shared key at equal version
// numbers on both ends.
func TestPortUpdateInterruptedRealigns(t *testing.T) {
	c, s1, s2, _ := resilientController(t)
	if _, err := c.InitAllKeys(); err != nil {
		t.Fatal(err)
	}
	assertPortKeySync(t, s1, s2, 1, 1)

	// s2 -> s1 is the ADHKD2 return leg of an s1-initiated update; eat it
	// for one flow attempt, then heal.
	legs := 0
	if err := c.SetLinkTap("s2", 1, func(data []byte) []byte {
		legs++
		if legs <= 1 {
			return nil
		}
		return data
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PortKeyUpdate("s1", 1); err != nil {
		t.Fatalf("port update with interrupted return leg: %v", err)
	}
	assertPortKeySync(t, s1, s2, 1, 1)
}

// TestQuarantineOnBlackhole checks the circuit breaker: a switch that
// stops answering entirely is marked degraded, then quarantined with an
// AlertUnreachable, operations fail fast, and ClearHealth restores it.
func TestQuarantineOnBlackhole(t *testing.T) {
	c, s1, _ := twoSwitchFabric(t)
	if _, err := c.LocalKeyInit("s1"); err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, FlowRetries: 1})
	c.SetHealthPolicy(HealthPolicy{DegradeAfter: 1, QuarantineAfter: 2})

	blackhole := func([]byte) []byte { return nil }
	if err := c.SetControlTaps("s1", blackhole, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LocalKeyUpdate("s1"); err == nil {
		t.Fatal("update through a blackhole should fail")
	}
	h, err := c.HealthOf("s1")
	if err != nil {
		t.Fatal(err)
	}
	if h.State != Quarantined {
		t.Fatalf("health after blackhole: %v (consecutive=%d), want quarantined", h.State, h.Consecutive)
	}
	var unreachable bool
	for _, a := range c.Alerts() {
		if a.Switch == "s1" && a.Reason == core.AlertUnreachable {
			unreachable = true
		}
	}
	if !unreachable {
		t.Error("quarantine did not emit AlertUnreachable")
	}

	// Circuit open: fail fast without touching the wire.
	sent := c.Stats().MessagesSent
	if _, _, err := c.ReadRegister("s1", "lat", 0); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("read while quarantined: err=%v, want ErrQuarantined", err)
	}
	// A confirmed rollover fails as fast, with no resync behind it.
	if _, err := c.LocalKeyUpdate("s1"); !errors.Is(err, ErrQuarantined) || strings.Contains(err.Error(), "resync") {
		t.Fatalf("rollover while quarantined: err=%v, want ErrQuarantined and no resync", err)
	}
	if c.Stats().MessagesSent != sent {
		t.Error("quarantined operation still sent traffic")
	}

	// The untapped switch is unaffected.
	if _, err := c.LocalKeyInit("s2"); err != nil {
		t.Fatalf("healthy switch affected by s1 quarantine: %v", err)
	}

	// Operator repairs the channel and clears the breaker.
	if err := c.SetControlTaps("s1", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.ClearHealth("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LocalKeyUpdate("s1"); err != nil {
		t.Fatalf("update after repair: %v", err)
	}
	assertLocalKeySync(t, c, s1, "s1")
	if h, _ := c.HealthOf("s1"); h.State != Healthy {
		t.Fatalf("health after repair: %v, want healthy", h.State)
	}
}

// TestBackoffAdvancesVirtualClock checks the retransmission waits run on
// the attached netsim clock with the deterministic exponential schedule.
func TestBackoffAdvancesVirtualClock(t *testing.T) {
	c, _, _, sim := resilientController(t)
	c.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
		FlowRetries: 0,
	})
	if err := c.SetControlTaps("s1", func([]byte) []byte { return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadRegister("s1", "lat", 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("blackholed read: err=%v, want ErrTimeout", err)
	}
	// Attempt 2 waits 100µs, attempt 3 waits 200µs.
	if want := 300 * time.Microsecond; sim.Now() != want {
		t.Fatalf("virtual clock at %v after retries, want %v", sim.Now(), want)
	}
}

func TestRetryPolicyBackoffSchedule(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseBackoff: 100 * time.Microsecond, MaxBackoff: 500 * time.Microsecond}
	want := []time.Duration{0, 100 * time.Microsecond, 200 * time.Microsecond, 400 * time.Microsecond,
		500 * time.Microsecond, 500 * time.Microsecond}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w {
			t.Errorf("backoff(attempt %d) = %v, want %v", i+1, got, w)
		}
	}
	if got := (RetryPolicy{MaxAttempts: 4}).backoff(3); got != 0 {
		t.Errorf("zero BaseBackoff must not wait, got %v", got)
	}
}

// TestObserversSafeDuringExchanges (run with -race) hammers the
// observability accessors from other goroutines while the controller works
// a lossy channel.
func TestObserversSafeDuringExchanges(t *testing.T) {
	c, _, _, _ := resilientController(t)
	tapAllChannels(t, c, 0.15, 7)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = c.Stats()
				_ = c.Alerts()
				_, _ = c.Outstanding("s1")
				_, _ = c.HealthOf("s1")
				_ = c.CheckDoS(1)
			}
		}()
	}
	if _, err := c.InitAllKeys(); err != nil {
		t.Fatalf("InitAllKeys during concurrent observation: %v", err)
	}
	if _, err := c.UpdateAllKeys(); err != nil {
		t.Fatalf("UpdateAllKeys during concurrent observation: %v", err)
	}
	close(stop)
	wg.Wait()
	if c.Stats().MessagesSent == 0 {
		t.Error("no traffic accounted")
	}
}
