// routescout-protect runs the paper's Fig. 2 scenario: RouteScout's
// controller pulls per-path latency aggregates from the data plane and
// rebalances the traffic split; a compromised switch OS inflates path 1's
// reported latency; P4Auth detects each tampered response and the
// controller refuses to act on it.
package main

import (
	"fmt"
	"log"
	"time"

	"p4auth/internal/routescout"
	"p4auth/internal/trace"
)

func main() {
	tc := trace.DefaultConfig(uint64(1200 * time.Millisecond))
	tc.FlowsPerSecond = 800
	pkts := trace.Generate(tc)
	st := trace.Summarize(pkts)
	fmt.Printf("trace: %d packets, %d flows, %.1f MB\n\n", st.Packets, st.Flows, float64(st.Bytes)/1e6)

	for _, arm := range []struct {
		label  string
		mode   routescout.Mode
		attack bool
	}{
		{"no adversary", routescout.ModeInsecure, false},
		{"adversary, no protection", routescout.ModeInsecure, true},
		{"adversary + P4Auth", routescout.ModeP4Auth, true},
	} {
		cfg := routescout.DefaultConfig(arm.mode)
		s, err := routescout.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if arm.mode == routescout.ModeP4Auth {
			if _, err := s.Ctrl.LocalKeyInit("edge"); err != nil {
				log.Fatal(err)
			}
		}
		if arm.attack {
			// The backdoor activates after RouteScout converges.
			s.Net.Sim.At(300*time.Millisecond, func() {
				_ = s.InstallLatencyInflater(20)
			})
		}
		p1, p2, err := s.Run(cfg, pkts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-26s path1 %5.1f%%  path2 %5.1f%%  split=%3d/256  tampered=%d  alerts=%d\n",
			arm.label, 100*p1, 100*p2, s.Split, s.TamperedReads, s.Ctrl.AlertCount())
	}
	fmt.Println("\npath1 is the genuinely faster path (2 ms vs 6 ms); the adversary makes")
	fmt.Println("it look slow. With P4Auth the controller keeps the converged split and alerts.")
}
