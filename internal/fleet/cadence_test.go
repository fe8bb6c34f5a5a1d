package fleet

import (
	"testing"
	"time"

	"p4auth/internal/core"
	"p4auth/internal/hula"
)

// TestProbeCadencePerLink holds every link direction of a secure k=4
// fabric to the probe cadence the link supervisor and the matrix's
// detection read: with every edge probing once per period, each
// switch-to-switch link delivers at least one verified probe in each
// direction in every period after the warm-up, counted in the receiving
// port's pa_fb_ok. A probe takes about 1.1 ms of modeled time to cross
// the fabric's four hops, so the warm-up is eight periods.
func TestProbeCadencePerLink(t *testing.T) {
	topo, err := BuildFatTree(DefaultTopoConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	const (
		period = 200 * time.Microsecond
		warmup = 8
		rounds = 24
	)
	type end struct {
		sw   string
		port int
	}
	var ends []end
	for _, lk := range topo.Links {
		ends = append(ends, end{lk.A, lk.APort}, end{lk.B, lk.BPort})
	}
	sim := topo.Net.Sim
	for r := 0; r < rounds; r++ {
		at := period/2 + time.Duration(r)*period
		for _, e := range topo.Edges {
			sim.At(at, func() {
				if err := topo.InjectProbe(e); err != nil {
					t.Error(err)
				}
			})
		}
	}
	prev := make([]uint64, len(ends))
	var total uint64
	for r := 0; r <= rounds; r++ {
		sim.At(time.Duration(r)*period, func() {
			for i, x := range ends {
				ok, err := topo.Switches[x.sw].Host.SW.RegisterRead(core.RegFbOK, x.port)
				if err != nil {
					t.Fatal(err)
				}
				if r > warmup {
					if ok == prev[i] {
						t.Errorf("period %d: %s port %d received no verified probe", r-1, x.sw, x.port)
					}
					total += ok - prev[i]
				}
				prev[i] = ok
			}
		})
	}
	sim.Run()
	if topo.TotalAlerts() != 0 {
		t.Fatalf("%d alerts on a clean fabric", topo.TotalAlerts())
	}
	t.Logf("%d verified probe hops per period after warm-up", total/(rounds-warmup))
}

// TestProbeFailoverGap pins the one window in which a transit switch
// advertises a ToR to no one: its best hop's link fails without being
// quarantined. The copies of the ToR's probe from the agg's other core
// lose until the best path is older than FailTimeoutNs, so the agg's
// best-path timestamp for that ToR, which a transit switch moves exactly
// when it passes a probe on, stalls for just over FailTimeoutNs and then
// moves to the surviving core.
func TestProbeFailoverGap(t *testing.T) {
	topo, err := BuildFatTree(DefaultTopoConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	const (
		period   = 200 * time.Microsecond
		rounds   = 40
		downAt   = 12 * period
		sampleNs = 10 * time.Microsecond
		failNs   = 2_000_000 // BuildFatTree's default FailTimeoutNs
	)
	agg, tor := AggName(0, 0), topo.TorID[EdgeName(1, 0)]
	sw := topo.Switches[agg].Host.SW
	read := func(reg string) uint64 {
		v, err := sw.RegisterRead(reg, int(tor))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	sim := topo.Net.Sim
	for r := 0; r < rounds; r++ {
		for _, e := range topo.Edges {
			sim.At(period/2+time.Duration(r)*period, func() {
				if err := topo.InjectProbe(e); err != nil {
					t.Error(err)
				}
			})
		}
	}
	var deadHop, lastTS uint64
	sim.At(downAt, func() {
		deadHop, lastTS = read(hula.RegBestHop), read(hula.RegBestTS)
		for _, lk := range topo.Links {
			if (lk.A == agg && uint64(lk.APort) == deadHop) || (lk.B == agg && uint64(lk.BPort) == deadHop) {
				lk.L.SetDown(true)
				return
			}
		}
		t.Fatalf("%s: no link on best hop %d", agg, deadHop)
	})
	var gap uint64
	for at := downAt + sampleNs; at < time.Duration(rounds)*period; at += sampleNs {
		sim.At(at, func() {
			if ts := read(hula.RegBestTS); gap == 0 && ts != lastTS {
				gap = ts - lastTS
				if hop := read(hula.RegBestHop); hop == deadHop || hop == 0 {
					t.Errorf("best hop after failover is %d, the dead hop is %d", hop, deadHop)
				}
			}
		})
	}
	sim.Run()
	if deadHop == 0 {
		t.Fatalf("%s has no best hop to ToR %d after warm-up", agg, tor)
	}
	if gap <= failNs || gap > failNs+uint64(period) {
		t.Fatalf("%s stopped advertising ToR %d for %d ns, want (%d, %d]", agg, tor, gap, failNs, failNs+uint64(period))
	}
	t.Logf("%s advertised ToR %d again %d ns after its last probe over the failed hop", agg, tor, gap)
}
