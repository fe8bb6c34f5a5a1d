package bench

import (
	"fmt"
	"time"

	"p4auth/internal/hula"
)

// Fig. 17 completes in a few hundred virtual milliseconds — the
// distribution stabilizes well before the paper's 60 s.
const (
	fig17Duration    = 120 * time.Millisecond
	fig17ProbeEvery  = 200 * time.Microsecond
	fig17PacketEvery = 20 * time.Microsecond
)

// Fig17 regenerates Fig. 17: HULA's traffic distribution across the three
// S1->S5 paths under (clean / MitM on the S4-S1 link / MitM + P4Auth).
func Fig17() (*Report, error) {
	rep := &Report{
		ID:      "Fig 17",
		Title:   "HULA traffic split across S1-S2 / S1-S3 / S1-S4 (MitM forges probeUtil on S4-S1)",
		Columns: []string{"scenario", "via S2", "via S3", "via S4", "alerts@S1"},
	}
	type arm struct {
		label    string
		secure   bool
		attacked bool
	}
	for _, a := range []arm{
		{"no adversary", true, false},
		{"with MitM adversary", false, true},
		{"MitM + P4Auth", true, true},
	} {
		shares, alerts, err := runFig17Arm(a.secure, a.attacked)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			a.label, pct(shares["s2"]), pct(shares["s3"]), pct(shares["s4"]),
			fmt.Sprintf("%d", alerts),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper: adversary pulls >70% onto the compromised S1-S4 link; P4Auth drops forged probes and blocks it")
	return rep, nil
}

func runFig17Arm(secure, attacked bool) (map[string]float64, int, error) {
	n, err := hula.NewFig3Network(secure, 1e9, 5*time.Microsecond)
	if err != nil {
		return nil, 0, err
	}
	if attacked {
		l := n.Net.LinkBetween("s1", "s4")
		if err := l.SetTap("s1", hula.ForgeUtilTap(secure, 7)); err != nil {
			return nil, 0, err
		}
	}
	n.ScheduleProbes("s5", 5, fig17ProbeEvery, fig17Duration)
	n.ScheduleProbes("s1", 1, fig17ProbeEvery, fig17Duration)
	var pkt uint64
	var sendErr error
	for at := 2 * time.Millisecond; at < fig17Duration; at += fig17PacketEvery {
		at := at
		n.Net.Sim.At(at, func() {
			flow := uint32(pkt / 8)
			pkt++
			if err := n.SendData("s1", 5, flow, 1000); err != nil && sendErr == nil {
				sendErr = err
			}
			if err := n.SendData("s5", 1, 0x8000_0000|flow, 1000); err != nil && sendErr == nil {
				sendErr = err
			}
			for i, mid := range []string{"s2", "s3", "s4"} {
				_ = n.SendData(mid, 5, uint32(0x4000_0000+i), 600)
				_ = n.SendData(mid, 1, uint32(0x2000_0000+i), 600)
			}
		})
	}
	n.Net.Sim.Run()
	if sendErr != nil {
		return nil, 0, sendErr
	}
	shares, err := n.PathShares("s1", []string{"s2", "s3", "s4"})
	if err != nil {
		return nil, 0, err
	}
	return shares, n.Switches["s1"].Alerts, nil
}
