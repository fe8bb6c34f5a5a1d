//go:build parprobe

package main

import (
	"fmt"
	"time"

	"p4auth/internal/fleet"
	"p4auth/internal/hula"
)

// Parallel probe: dpdp_probes with two ingress workers and fabric_k4 on
// two simulator shards, each taking turns chunk by chunk with the default
// build of the same workload, on the wall clock. It answers whether the
// parallel machinery buys host time on this machine; it is not part of
// the benchmark's metrics.
//
//	go run -tags parprobe ./benchmark -parprobe -seconds 10
func init() {
	parProbe = func(seed uint64, budget time.Duration) error {
		p := hula.DefaultParams(1, probePorts)
		p.Workers = 2
		par, err := newProbes(seed, setupOpts{}, p)
		if err != nil {
			return err
		}
		if err := parRatio("dpdp_probes", "workers=2", seed, budget/2, par); err != nil {
			return err
		}
		cfg := fleet.DefaultTopoConfig(fabricK)
		cfg.Seed, cfg.Shards = seed, 2
		sharded := &fabric{cfg: cfg, whole: true}
		if err := sharded.build(); err != nil {
			return err
		}
		return parRatio("fabric_k4", "shards=2", seed, budget/2, sharded)
	}
}

func parRatio(name, variant string, seed uint64, budget time.Duration, par instance) error {
	w, _ := workloadByName(name)
	def, err := w.setup(seed, setupOpts{})
	if err != nil {
		return err
	}
	rs, err := measure(w, budget, false, nil, def, par)
	if err != nil {
		return err
	}
	d, p := typical(perOp(rs[0].chunks, wallOf)), typical(perOp(rs[1].chunks, wallOf))
	e := hostEnv()
	fmt.Printf("%s %s: %.1f ns/op against %.1f default, wall ratio %.3f (%d chunks each, GOMAXPROCS=%d NumCPU=%d %s)\n",
		name, variant, p, d, p/d, len(rs[0].chunks), e.GoMaxProcs, e.NumCPU, e.GoVersion)
	return nil
}
