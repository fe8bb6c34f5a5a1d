package bench

import (
	"fmt"
	"time"

	"p4auth/internal/app"
	"p4auth/internal/routescout"
	"p4auth/internal/trace"
)

// Fig. 16 mirrors the paper's 60 s CAIDA replay at a virtual scale that
// completes quickly (the split converges within a second).
const (
	fig16Duration = 1500 * time.Millisecond
	fig16Flows    = 800
	fig16Seed     = 0xCA1DA
)

// Fig16 regenerates Fig. 16: RouteScout's traffic distribution across two
// paths without an adversary, with a control-plane adversary, and with the
// adversary plus P4Auth.
func Fig16() (*Report, error) {
	tc := trace.DefaultConfig(uint64(fig16Duration))
	tc.FlowsPerSecond = fig16Flows
	tc.Seed = fig16Seed
	pkts := trace.Generate(tc)

	type arm struct {
		label  string
		mode   app.Mode
		attack bool
	}
	arms := []arm{
		{"no adversary", app.ModeInsecure, false},
		{"with adversary", app.ModeInsecure, true},
		{"adversary + P4Auth", app.ModeP4Auth, true},
	}
	rep := &Report{
		ID:      "Fig 16",
		Title:   "RouteScout traffic split (path1 = fast path)",
		Columns: []string{"scenario", "path1", "path2", "tampered reads", "alerts"},
	}
	for _, a := range arms {
		cfg := routescout.DefaultConfig(a.mode)
		s, err := routescout.New(cfg)
		if err != nil {
			return nil, err
		}
		if a.mode == app.ModeP4Auth {
			if _, err := s.Ctrl.LocalKeyInit("edge"); err != nil {
				return nil, err
			}
		}
		if a.attack {
			// The backdoor activates after RouteScout has converged (a
			// quarter into the run), as in the paper's scenario where an
			// established split is then manipulated.
			s.Net.Sim.At(fig16Duration/4, func() {
				_ = s.InstallLatencyInflater(20)
			})
		}
		p1, p2, err := s.Run(cfg, pkts)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			a.label, pct(p1), pct(p2),
			fmt.Sprintf("%d", s.TamperedReads),
			fmt.Sprintf("%d", s.Ctrl.AlertCount()),
		})
	}
	rep.Notes = append(rep.Notes,
		"paper: adversary pushes ~70% to path2; P4Auth retains the original split and raises alerts")
	return rep, nil
}
