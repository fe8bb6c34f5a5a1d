package hula

import (
	"testing"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/fabric"
	"p4auth/internal/netsim"
	"p4auth/internal/obs"
)

func auditCauses(o *obs.Observer) map[string]int {
	causes := make(map[string]int)
	for _, e := range o.Audit.ByType(obs.EvLinkState) {
		causes[e.Cause]++
	}
	return causes
}

// TestOneSidedRolloverSupervisedRepair interrupts a port-key update so one
// link end installs and the other does not, then lets the supervisor find
// the version skew, quarantine the link, repair the key pair under an
// epoch fence, and reinstate the link after probation — while HULA routes
// around the quarantined port.
func TestOneSidedRolloverSupervisedRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time fabric run")
	}
	n, err := NewFig3Network(true, 1e9, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := n.NewSupervisor(fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	const dur = 30 * time.Millisecond
	n.ScheduleProbes("s5", 5, 200*time.Microsecond, dur)
	n.ScheduleProbes("s1", 1, 200*time.Microsecond, dur)
	n.ScheduleSupervisor(sup, time.Millisecond, dur)
	var pkt uint64
	for at := 2 * time.Millisecond; at < dur; at += 20 * time.Microsecond {
		at := at
		n.Net.Sim.At(at, func() {
			flow := uint32(pkt / 8)
			pkt++
			_ = n.SendData("s1", 5, flow, 1000)
		})
	}

	// At 8ms: a port-key update on the s1:1<->s2:1 link loses its final
	// DP-DP leg (s1 installs, s2 never does) — a one-sided rollover.
	n.Net.Sim.At(8*time.Millisecond, func() {
		if err := n.Ctrl.SetLinkTap("s1", 1, func([]byte) []byte { return nil }); err != nil {
			t.Errorf("arm link tap: %v", err)
			return
		}
		_, _ = n.Ctrl.PortKeyUpdate("s2", 1) // interrupted on purpose
		_ = n.Ctrl.SetLinkTap("s1", 1, nil)
		skew, err := n.Ctrl.PortKeySkew("s2", 1)
		if err != nil || skew == nil {
			t.Errorf("sabotage produced no skew (skew=%v err=%v)", skew, err)
		}
	})

	// At 9.5ms the supervisor has quarantined the link (the first tick at
	// or after 8ms sees the skew) and is inside the 2ms hold-down:
	// degraded routing must have moved s1's best hop for ToR 5 off port 1
	// within a few probe rounds.
	n.Net.Sim.At(9500*time.Microsecond, func() {
		snap := sup.Snapshot()
		var st fabric.State
		for _, s := range snap {
			if s.Link.A == "s1" && s.Link.PA == 1 {
				st = s.State
			}
		}
		if st != fabric.Quarantined {
			t.Errorf("link not quarantined during hold-down (state %v)", st)
		}
		hop, err := n.Switches["s1"].Host.SW.RegisterRead(RegBestHop, 5)
		if err != nil {
			t.Errorf("best hop read: %v", err)
			return
		}
		if hop == 1 {
			t.Error("best hop still the quarantined port during degraded routing")
		}
	})

	n.Net.Sim.Run()

	if !sup.AllHealthy() {
		t.Errorf("fabric did not reconverge:\n%+v", sup.Snapshot())
	}
	if skew, err := n.Ctrl.PortKeySkew("s2", 1); err != nil || skew != nil {
		t.Errorf("link still skewed after repair: skew=%v err=%v", skew, err)
	}
	v1, _ := n.Switches["s1"].Host.SW.RegisterRead(core.RegVer, 1)
	v2, _ := n.Switches["s2"].Host.SW.RegisterRead(core.RegVer, 1)
	if v1 != v2 {
		t.Errorf("pa_ver mismatch after repair: s1=%d s2=%d", v1, v2)
	}

	// The rolled-ahead side signs probes s2 cannot verify until the repair
	// lands, so the evidence counters must show rejections.
	bad, _, err := n.Ctrl.ReadRegister("s2", core.RegFbBad, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bad == 0 {
		t.Error("one-sided rollover produced no rejected feedback at the lagging end")
	}

	causes := auditCauses(n.Ctrl.Observer())
	for _, want := range []string{fabric.CauseKeySkew, fabric.CauseHoldDownExpired, fabric.CauseProbationPassed} {
		if causes[want] == 0 {
			t.Errorf("audit missing cause %q (got %v)", want, causes)
		}
	}
	o := n.Ctrl.Observer()
	if got, want := uint64(len(o.Audit.ByType(obs.EvLinkState))), o.Metrics.Counter("fabric.transitions").Load(); got != want {
		t.Errorf("audit has %d link_state events, transitions counter says %d", got, want)
	}
	if n.DstDelivered == 0 {
		t.Error("no data delivered across the degraded fabric")
	}
}

// TestFlappingLinkDegradedRoutingAndReinstatement flaps the s1-s2 link
// mid-probe-cycle with an on-link forger riding the up-phases: every probe
// that survives the flap carries a forged utilization and must be rejected
// (no unauthenticated feedback is ever applied), the supervisor must
// quarantine the link on the rejection evidence, HULA must converge to the
// surviving paths, and after the flap clears the link must pass probation
// and return to service.
func TestFlappingLinkDegradedRoutingAndReinstatement(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time fabric run")
	}
	const forged = 0x7777
	n, err := NewFig3Network(true, 1e9, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := n.NewSupervisor(fabric.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	const dur = 60 * time.Millisecond
	n.ScheduleProbes("s5", 5, 200*time.Microsecond, dur)
	n.ScheduleProbes("s1", 1, 200*time.Microsecond, dur)
	n.ScheduleSupervisor(sup, time.Millisecond, dur)
	var pkt uint64
	for at := 2 * time.Millisecond; at < dur; at += 20 * time.Microsecond {
		at := at
		n.Net.Sim.At(at, func() {
			flow := uint32(pkt / 8)
			pkt++
			_ = n.SendData("s1", 5, flow, 1000)
		})
	}

	link := n.Net.LinkBetween("s1", "s2")
	n.Net.Sim.At(8*time.Millisecond, func() {
		// Toward s1: flap, and forge every probe that gets through.
		_ = link.SetTap("s1", netsim.ChainTaps(
			netsim.LinkFlapTap(6, 20, 0xF1A9),
			ForgeUtilTap(true, forged),
		))
		// Toward s2: flap only (carries data + s1-origin probes).
		_ = link.SetTap("s2", netsim.LinkFlapTap(60, 200, 0xF1A8))
	})
	n.Net.Sim.At(30*time.Millisecond, func() {
		_ = link.SetTap("s1", nil)
		_ = link.SetTap("s2", nil)
	})

	// Mid-attack: the forged value must never sit in best-path state, and
	// routing must have left the flapping link.
	var sawForged, sawPort1 bool
	for at := 12 * time.Millisecond; at <= 29*time.Millisecond; at += time.Millisecond {
		n.Net.Sim.At(at, func() {
			util, _ := n.Switches["s1"].Host.SW.RegisterRead(RegBestUtil, 5)
			if util == forged {
				sawForged = true
			}
		})
	}
	n.Net.Sim.At(25*time.Millisecond, func() {
		hop, _ := n.Switches["s1"].Host.SW.RegisterRead(RegBestHop, 5)
		if hop == 1 {
			sawPort1 = true
		}
	})

	n.Net.Sim.Run()

	if sawForged {
		t.Error("forged probe utilization was applied to best-path state")
	}
	if sawPort1 {
		t.Error("route did not converge off the flapping link")
	}
	if n.TotalAlerts() == 0 {
		t.Error("forged probes raised no alerts")
	}
	if !sup.AllHealthy() {
		t.Errorf("fabric did not reconverge after the flap cleared:\n%+v", sup.Snapshot())
	}
	if skew, err := n.Ctrl.PortKeySkew("s1", 1); err != nil || skew != nil {
		t.Errorf("link keys not paired after recovery: skew=%v err=%v", skew, err)
	}

	causes := auditCauses(n.Ctrl.Observer())
	if causes[fabric.CauseBadDigests] == 0 && causes[fabric.CauseSilence] == 0 {
		t.Errorf("no digest/silence evidence audited (got %v)", causes)
	}
	if causes[fabric.CauseProbationPassed] == 0 {
		t.Errorf("link never passed probation (got %v)", causes)
	}
	o := n.Ctrl.Observer()
	if got, want := uint64(len(o.Audit.ByType(obs.EvLinkState))), o.Metrics.Counter("fabric.transitions").Load(); got != want {
		t.Errorf("audit has %d link_state events, transitions counter says %d", got, want)
	}
	if o.Audit.Evicted() != 0 {
		t.Error("audit ring evicted events")
	}
}
