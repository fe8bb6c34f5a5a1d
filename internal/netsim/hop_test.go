package netsim_test

import (
	"testing"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/hula"
	"p4auth/internal/netsim"
)

// hopFixture is the smallest network in which every simulator event is a
// full fabric hop: two secure HULA switches, keyed by the controller like a
// fat tree's, joined by one link, each flooding a probe that arrives on
// the link straight back onto it. One injected probe then crosses the link
// for ever, and each Sim.Step is one delivery, one verify, one best-hop
// update, one re-sign and one Send.
type hopFixture struct {
	net      *netsim.Network
	link     *netsim.Link
	switches [2]*hula.Switch
}

func newHopFixture(tb testing.TB) *hopFixture {
	tb.Helper()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	f := &hopFixture{net: netsim.NewNetwork()}
	ctrl := controller.New(crypto.NewSeededRand(21))
	for i, name := range []string{"s1", "s2"} {
		sw, err := hula.NewSwitch(name, hula.DefaultParams(i+1, 1), uint64(i+1))
		must(err)
		f.switches[i] = sw
		f.net.AddNode(name, sw.Node)
		must(ctrl.Register(name, sw.Host, sw.Cfg, 50*time.Microsecond))
		must(sw.SetProbeFlood(1, []int{1}))
	}
	f.link = f.net.MustConnect("s1", 1, "s2", 1, 5*time.Microsecond, 10e9)
	must(ctrl.ConnectSwitches("s1", 1, "s2", 1, 5*time.Microsecond))
	_, err := ctrl.InitAllKeys()
	must(err)

	s1 := f.switches[0]
	must(s1.SetProbeFlood(s1.Params.GeneratorPort, []int{1}))
	probe, err := hula.ProbePacket(1, true)
	must(err)
	s1.Node.Inject(f.net, f.net.Node("s1"), s1.Params.GeneratorPort, probe)
	return f
}

// check fails unless every one of the steps taken so far was a verified
// hop.
func (f *hopFixture) check(tb testing.TB, steps int) {
	tb.Helper()
	var verified uint64
	for _, sw := range f.switches {
		if sw.Node.ErrorCount != 0 || sw.Alerts != 0 {
			tb.Fatalf("%s: %d pipeline errors (first: %v), %d alerts", sw.Name, sw.Node.ErrorCount, sw.Node.Errors, sw.Alerts)
		}
		ok, err := sw.Host.SW.RegisterRead(core.RegFbOK, 1)
		if err != nil {
			tb.Fatal(err)
		}
		verified += ok
	}
	if verified != uint64(steps) {
		tb.Fatalf("%d probes verified after %d steps", verified, steps)
	}
	if at, pending := f.net.Sim.NextEventAt(); !pending {
		tb.Fatalf("the probe died at %v", at)
	}
}

// TestFabricHopZeroAlloc is the allocation guard of the fabric hop: once
// the queue, the free list and the per-node results have grown to their
// working size, a hop allocates nothing in netsim, deploy, switchos or the
// pipeline.
func TestFabricHopZeroAlloc(t *testing.T) {
	f := newHopFixture(t)
	const warm, measured = 64, 1000
	for i := 0; i < warm; i++ {
		f.net.Sim.Step()
	}
	perStep := testing.AllocsPerRun(measured, func() { f.net.Sim.Step() })
	if perStep != 0 && !raceEnabled {
		t.Errorf("%v allocations per Sim.Step, want 0", perStep)
	}
	f.check(t, warm+measured+1) // AllocsPerRun runs the function once to warm up
	_, packets, err := f.link.TxStats("s1")
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(warm+measured+1)/2 + 1; packets != want {
		t.Errorf("s1 put %d packets on the link, want %d", packets, want)
	}
}

// BenchmarkFabricHop times one hop on the same fixture; allocs/op is the
// number the bench-smoke gate prints.
func BenchmarkFabricHop(b *testing.B) {
	f := newHopFixture(b)
	for i := 0; i < 64; i++ {
		f.net.Sim.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.net.Sim.Step()
	}
	b.StopTimer()
	f.check(b, 64+b.N)
}
