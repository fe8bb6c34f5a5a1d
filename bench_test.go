package p4auth

import (
	"testing"
	"time"

	"p4auth/internal/attacker"
	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/hula"
	"p4auth/internal/statestore"
	"p4auth/internal/switchos"
)

// Benchmarks of the authenticated C-DP path and the key rollovers.
// The paper's tables and figures are modeled reports, pinned by
// internal/bench's TestReportGoldens and printed by
// `go run ./cmd/p4auth-bench`.

// authenticatedBench builds one switch with a keyed controller and runs
// enough writes to warm the handle scratch and the agent's response cache,
// so the steady state (0 allocs/op) is what gets measured.
func authenticatedBench(b *testing.B) (*Controller, *Switch) {
	sw, err := BuildSwitch(SwitchSpec{
		Name:  "b1",
		Ports: 4,
		Registers: []*RegisterDef{
			{Name: "r", Width: 64, Entries: 64},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	c := NewController(crypto.NewSeededRand(9))
	if err := c.Register("b1", sw.Host, sw.Cfg, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := c.LocalKeyInit("b1"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := c.WriteRegister("b1", "r", uint32(i%64), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	return c, sw
}

func BenchmarkAuthenticatedWrite(b *testing.B) {
	c, _ := authenticatedBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.WriteRegister("b1", "r", uint32(i%64), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteRegisterBatch32 is cdp_window32's operation as a go test
// benchmark: one op is one WriteRegisterBatch of 32 writes at window 32,
// so ns/op and allocs/op are per window, not per write.
func BenchmarkWriteRegisterBatch32(b *testing.B) {
	c, _ := authenticatedBench(b)
	writes := make([]controller.RegWrite, 32)
	batch := func(i int) {
		for j := range writes {
			writes[j] = controller.RegWrite{Register: "r", Index: uint32((i*32 + j) % 64), Value: uint64(i<<8 | j)}
		}
		if _, err := c.WriteRegisterBatch("b1", 32, writes); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // warm the window scratch
		batch(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch(i)
	}
}

// BenchmarkDurableWrite is BenchmarkAuthenticatedWrite with the write
// journaled (EnableCrashSafety over an in-memory store): one intent saved
// before the send and deleted after the ack, as in cdp_hostile.
func BenchmarkDurableWrite(b *testing.B) {
	c, _ := authenticatedBench(b)
	if err := c.EnableCrashSafety(statestore.NewMem()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.WriteRegister("b1", "r", uint32(i%64), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostileWrite is cdp_hostile's operation: a journaled write
// under ResilientRetryPolicy while an in-stack adversary at the agent/SDK
// boundary flips the value of every 4th request, so one write in four
// draws an authenticated alert and is resent. The data-plane alert window
// is reset every 128 writes, as the operator does (§VIII). It reports the
// alerts the controller retains, which stay at the retention bound however
// long the flood runs.
func BenchmarkHostileWrite(b *testing.B) {
	c, sw := authenticatedBench(b)
	if err := c.EnableCrashSafety(statestore.NewMem()); err != nil {
		b.Fatal(err)
	}
	c.SetRetryPolicy(controller.ResilientRetryPolicy())
	seen := 0
	mitm := &attacker.CtrlPlaneMitM{
		RewriteMessage: func(m *core.Message, toDataPlane bool) bool {
			if !toDataPlane || m.Reg == nil {
				return false
			}
			if seen++; seen%4 != 0 {
				return false
			}
			m.Reg.Value ^= 0x5A5A
			return true
		},
	}
	if err := sw.Host.Install(switchos.BoundaryAgentSDK, mitm.Hooks()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.WriteRegister("b1", "r", uint32(i%64), uint64(i)); err != nil {
			b.Fatal(err)
		}
		if i%128 == 127 {
			if _, err := c.ResetAlertWindow("b1"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if b.N >= 4 && c.AlertCount() == 0 {
		b.Fatal("the adversary drew no alerts")
	}
	b.ReportMetric(float64(len(c.Alerts())), "alerts_retained")
}

// BenchmarkAuthenticatedRead is the other half of a cdp_serial operation:
// the read of what BenchmarkAuthenticatedWrite wrote.
func BenchmarkAuthenticatedRead(b *testing.B) {
	c, _ := authenticatedBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, err := c.ReadRegister("b1", "r", uint32(i%64))
		if err != nil {
			b.Fatal(err)
		}
		if v != uint64(i%64) {
			b.Fatalf("r[%d] = %d, the warm-up wrote %d", i%64, v, i%64)
		}
	}
}

func BenchmarkLocalKeyRollover(b *testing.B) {
	sw, err := BuildSwitch(SwitchSpec{
		Name:  "b2",
		Ports: 4,
		Registers: []*RegisterDef{
			{Name: "r", Width: 64, Entries: 4},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	c := NewController(crypto.NewSeededRand(10))
	if err := c.Register("b2", sw.Host, sw.Cfg, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := c.LocalKeyInit("b2"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.LocalKeyUpdate("b2"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortKeyRollover times a single-shot port-key rollover between
// two linked switches: one signed command to the first, whose data plane
// then runs the ADHKD with its peer through the two DP-DP messages the
// controller relays.
func BenchmarkPortKeyRollover(b *testing.B) {
	c := NewController(crypto.NewSeededRand(11))
	for _, name := range []string{"p1", "p2"} {
		sw, err := BuildSwitch(SwitchSpec{Name: name, Ports: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Register(name, sw.Host, sw.Cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.ConnectSwitches("p1", 1, "p2", 1, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := c.InitAllKeys(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PortKeyUpdate("p1", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBringUpRollover times the set-up of the benchmark's
// kmp_rollover fixture: a controller, two linked secure HULA switches
// (IDs 1 and 2, two ports each) with their probe floods, and every local
// and port key initialised. After the first iteration both programs are
// compiled, so what it measures is the per-switch and per-controller
// state a bring-up builds.
func BenchmarkBringUpRollover(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewController(crypto.NewSeededRand(1))
		var sws [2]*hula.Switch
		for j, name := range []string{"ka", "kb"} {
			sw, err := hula.NewSwitch(name, hula.DefaultParams(j+1, 2), uint64(j)|1)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Register(name, sw.Host, sw.Cfg, 50*time.Microsecond); err != nil {
				b.Fatal(err)
			}
			sws[j] = sw
		}
		if err := c.ConnectSwitches("ka", 2, "kb", 1, 5*time.Microsecond); err != nil {
			b.Fatal(err)
		}
		if err := sws[1].SetProbeFlood(sws[1].Params.GeneratorPort, []int{1}); err != nil {
			b.Fatal(err)
		}
		if err := sws[0].SetProbeFlood(2, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := c.InitAllKeys(); err != nil {
			b.Fatal(err)
		}
	}
}
