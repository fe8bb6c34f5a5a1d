package hula

import (
	"fmt"
	"testing"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/pisa"
)

func TestBuildProgramCompiles(t *testing.T) {
	for _, secure := range []bool{true, false} {
		t.Run(fmt.Sprintf("secure=%v", secure), func(t *testing.T) {
			p := DefaultParams(1, 4)
			p.Secure = secure
			prog, _, err := BuildProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := pisa.Compile(prog, pisa.BMv2Profile()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBuildProgramRejectsBadFlowletSlots(t *testing.T) {
	p := DefaultParams(1, 4)
	p.FlowletSlots = 1000
	if _, _, err := BuildProgram(p); err == nil {
		t.Fatal("non-power-of-two flowlet slots must be rejected")
	}
}

func TestProbePacketFramings(t *testing.T) {
	sec, err := ProbePacket(5, true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.DecodeMessage(sec)
	if err != nil {
		t.Fatal(err)
	}
	if m.HdrType != core.HdrFeedback || len(m.Aux) != 6 {
		t.Fatalf("secure probe = %+v", m)
	}
	ins, err := ProbePacket(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if ins[0] != PTypeInsecureProbe || len(ins) != 7 {
		t.Fatalf("insecure probe framing: % x", ins)
	}
}

// runFig3 drives the Fig. 17 scenario: probes every 200µs from S5, data
// packets from S1 at 1000B / 20µs across rotating flows, for the given
// virtual duration. Returns path shares via s2/s3/s4.
func runFig3(t *testing.T, secure, attacked bool, dur time.Duration) (map[string]float64, *Network) {
	t.Helper()
	n, err := NewFig3Network(secure, 1e9, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if attacked {
		l := n.Net.LinkBetween("s1", "s4")
		if l == nil {
			t.Fatal("no s1-s4 link")
		}
		// Forge a low utilization, below the loaded paths' real values but
		// different from the idle value (the paper's "10%" against 20-50%
		// on the honest paths).
		if err := l.SetTap("s1", ForgeUtilTap(secure, 7)); err != nil {
			t.Fatal(err)
		}
	}
	n.ScheduleProbes("s5", 5, 200*time.Microsecond, dur)
	n.ScheduleProbes("s1", 1, 200*time.Microsecond, dur)
	// Bidirectional data: warm up 2ms for first probes, then steady flow
	// arrivals both ways, plus steady background cross-traffic on each
	// path (the honest paths' "20-50%" baseline in the paper's Fig. 3 —
	// a CAIDA replay never leaves a core link fully idle).
	var pkt uint64
	for at := 2 * time.Millisecond; at < dur; at += 20 * time.Microsecond {
		at := at
		n.Net.Sim.At(at, func() {
			flow := uint32(pkt / 8) // 8-packet flowlets
			pkt++
			if err := n.SendData("s1", 5, flow, 1000); err != nil {
				t.Errorf("send data: %v", err)
			}
			if err := n.SendData("s5", 1, 0x8000_0000|flow, 1000); err != nil {
				t.Errorf("send reverse data: %v", err)
			}
			for i, mid := range []string{"s2", "s3", "s4"} {
				if err := n.SendData(mid, 5, uint32(0x4000_0000+i), 600); err != nil {
					t.Errorf("background: %v", err)
				}
				if err := n.SendData(mid, 1, uint32(0x2000_0000+i), 600); err != nil {
					t.Errorf("background: %v", err)
				}
			}
		})
	}
	n.Net.Sim.Run()
	shares, err := n.PathShares("s1", []string{"s2", "s3", "s4"})
	if err != nil {
		t.Fatal(err)
	}
	return shares, n
}

func TestFig3CleanDistributesAcrossPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time fabric run")
	}
	shares, n := runFig3(t, true, false, 100*time.Millisecond)
	for path, s := range shares {
		if s < 0.10 || s > 0.65 {
			t.Errorf("clean run: path via %s carries %.1f%%, want roughly balanced", path, 100*s)
		}
	}
	if n.DstDelivered == 0 {
		t.Fatal("no data delivered to destination")
	}
	if n.TotalAlerts() != 0 {
		t.Errorf("clean run raised %d alerts", n.TotalAlerts())
	}
}

func TestFig3AdversaryHijacksTrafficWithoutP4Auth(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time fabric run")
	}
	shares, _ := runFig3(t, false, true, 100*time.Millisecond)
	if shares["s4"] < 0.70 {
		t.Errorf("unprotected fabric: compromised path got %.1f%%, paper reports >70%%", 100*shares["s4"])
	}
}

func TestFig3P4AuthBlocksCompromisedLink(t *testing.T) {
	if testing.Short() {
		t.Skip("virtual-time fabric run")
	}
	shares, n := runFig3(t, true, true, 100*time.Millisecond)
	if shares["s4"] > 0.10 {
		t.Errorf("protected fabric: compromised path still got %.1f%%", 100*shares["s4"])
	}
	// Remaining traffic splits over the two healthy paths.
	if shares["s2"] < 0.25 || shares["s3"] < 0.25 {
		t.Errorf("healthy paths unbalanced: %+v", shares)
	}
	if n.TotalAlerts() == 0 {
		t.Error("no alerts raised for forged probes")
	}
	if n.Switches["s1"].Alerts == 0 {
		t.Error("S1 (the verifying switch) raised no alerts")
	}
}

func TestChainProbeTraversal(t *testing.T) {
	for _, secure := range []bool{false, true} {
		t.Run(fmt.Sprintf("secure=%v", secure), func(t *testing.T) {
			n, err := NewChainNetwork(4, secure, 5*time.Microsecond)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.InjectProbe("s4", 4); err != nil {
				t.Fatal(err)
			}
			n.Net.Sim.Run()
			// The probe must have reached s1: its best hop toward ToR 4 is
			// port 2.
			bh, err := n.Switches["s1"].Host.SW.RegisterRead(RegBestHop, 4)
			if err != nil {
				t.Fatal(err)
			}
			if bh != 2 {
				t.Fatalf("s1 best hop for ToR4 = %d, want 2", bh)
			}
			if n.Net.Sim.Now() <= 0 {
				t.Fatal("no virtual time elapsed")
			}
		})
	}
}

func TestChainSecureSlowerThanInsecure(t *testing.T) {
	traverse := func(secure bool) time.Duration {
		n, err := NewChainNetwork(6, secure, 5*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		start := n.Net.Sim.Now()
		if err := n.InjectProbe("s6", 6); err != nil {
			t.Fatal(err)
		}
		n.Net.Sim.Run()
		return n.Net.Sim.Now() - start
	}
	ins, sec := traverse(false), traverse(true)
	if sec <= ins {
		t.Errorf("secure traversal %v should exceed insecure %v", sec, ins)
	}
	overhead := float64(sec-ins) / float64(ins)
	if overhead > 0.25 {
		t.Errorf("per-probe P4Auth overhead %.1f%% is out of the paper's small-overhead regime", 100*overhead)
	}
}

func TestProbeUpdatesBestPathOnUtilChange(t *testing.T) {
	// Direct unit test of the best-hop update rules against one switch.
	p := DefaultParams(1, 4)
	p.Secure = false
	sw, err := NewSwitch("u1", p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.SetProbeFlood(1, nil); err != nil { // consume
		t.Fatal(err)
	}
	if err := sw.SetProbeFlood(2, nil); err != nil {
		t.Fatal(err)
	}
	inject := func(port int, dst uint16, util uint32, at uint64) {
		probe, err := ProbePacket(dst, false)
		if err != nil {
			t.Fatal(err)
		}
		// Overwrite util (big-endian at offset 3 with ptype byte).
		probe[1+ProbeUtilOffset+0] = byte(util >> 24)
		probe[1+ProbeUtilOffset+1] = byte(util >> 16)
		probe[1+ProbeUtilOffset+2] = byte(util >> 8)
		probe[1+ProbeUtilOffset+3] = byte(util)
		sw.Host.SW.SetNow(at)
		if _, err := sw.Host.NetworkPacket(port, probe); err != nil {
			t.Fatal(err)
		}
	}
	// First probe claims the route.
	inject(1, 9, 500, 1000)
	if bh, _ := sw.Host.SW.RegisterRead(RegBestHop, 9); bh != 1 {
		t.Fatalf("best hop = %d, want 1", bh)
	}
	// A better path displaces it.
	inject(2, 9, 100, 2000)
	if bh, _ := sw.Host.SW.RegisterRead(RegBestHop, 9); bh != 2 {
		t.Fatalf("best hop = %d, want 2 after better probe", bh)
	}
	// A worse probe from elsewhere does not.
	inject(1, 9, 400, 3000)
	if bh, _ := sw.Host.SW.RegisterRead(RegBestHop, 9); bh != 2 {
		t.Fatalf("best hop = %d, want 2 still", bh)
	}
	// The best hop's own probes update the utilization (degradation).
	inject(2, 9, 900, 4000)
	if bu, _ := sw.Host.SW.RegisterRead(RegBestUtil, 9); bu != 900 {
		t.Fatalf("best util = %d, want refreshed 900", bu)
	}
	// Now the other path wins again.
	inject(1, 9, 400, 5000)
	if bh, _ := sw.Host.SW.RegisterRead(RegBestHop, 9); bh != 1 {
		t.Fatalf("best hop = %d, want 1 after degradation", bh)
	}
	// Staleness failover: after FailTimeout with no refresh, any probe wins.
	inject(2, 9, 100_000, 5000+p.FailTimeoutNs+1)
	if bh, _ := sw.Host.SW.RegisterRead(RegBestHop, 9); bh != 2 {
		t.Fatalf("best hop = %d, want 2 via staleness failover", bh)
	}
}

// TestAppendDataPacketMatchesTheDataHeader holds the hand-laid bytes of
// AppendDataPacket to the header the program parses, and to DataPacket.
func TestAppendDataPacketMatchesTheDataHeader(t *testing.T) {
	prog, _, err := BuildProgram(DefaultParams(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	def := prog.Header(HdrData)
	prefix := []byte{0xEE, 0xFF}
	pkt := AppendDataPacket(append([]byte(nil), prefix...), 0x1234, 0xDEADBEEF, 10)
	if string(pkt[:2]) != string(prefix) || pkt[2] != PTypeData || len(pkt) != 2+1+def.Bytes()+10 {
		t.Fatalf("packet %x", pkt)
	}
	vals, err := pisa.UnpackHeader(def, pkt[3:])
	if err != nil || vals[0] != 0x1234 || vals[1] != 0xDEADBEEF {
		t.Fatalf("data header parses as %x, %v", vals, err)
	}
	for _, b := range pkt[3+def.Bytes():] {
		if b != 0 {
			t.Fatalf("payload not zero: %x", pkt)
		}
	}
	// Appending into a used buffer must clear what the payload overlays.
	dirty := []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
	again := AppendDataPacket(dirty[:0], 0x1234, 0xDEADBEEF, 10)
	whole, err := DataPacket(0x1234, 0xDEADBEEF, 10)
	if err != nil || string(again) != string(whole) || string(whole) != string(pkt[2:]) {
		t.Fatalf("DataPacket %x, reused buffer %x, appended %x", whole, again, pkt[2:])
	}
}
