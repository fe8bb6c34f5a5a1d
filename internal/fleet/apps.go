// Standalone app drivers: the seven Table I applications that model one
// switch plus its controller. The harness runs one instance per pod
// (distinct names, per-pod seeds — the fleet deployment), drives each
// through its paper scenario under the requested fault, and aggregates
// into one matrix cell.
package fleet

import (
	"fmt"

	"p4auth/internal/app"
	"p4auth/internal/blink"
	"p4auth/internal/controller"
	"p4auth/internal/crypto"
	"p4auth/internal/flowradar"
	"p4auth/internal/netcache"
	"p4auth/internal/netwarden"
	"p4auth/internal/routescout"
	"p4auth/internal/silkroad"
	"p4auth/internal/sketch"
	"p4auth/internal/statestore"
	"p4auth/internal/trace"
)

// standaloneApps maps each standalone app to its scenario and the mean
// score across pods at or above which it survives.
var standaloneApps = map[string]standaloneApp{
	"netcache":   {0.40, runNetcache},
	"flowradar":  {0.95, runFlowradar},
	"blink":      {1.0, runBlink},
	"netwarden":  {0.99, runNetwarden},
	"silkroad":   {0.99, runSilkroad},
	"routescout": {0.35, runRoutescout},
	"sketch":     {1.0, runSketch},
}

type standaloneApp struct {
	floor float64
	// run drives one instance through the scenario and returns its
	// pod's cell: score, forged, detected, and in Sent the operations
	// (queries, packets, connections) it drove.
	run func(*instance) (Cell, error)
}

// instance is one standalone app instance under one fault. Its scenario
// drives the app up to the fault, calls fault, and drives it on.
type instance struct {
	name               string
	seed               uint64
	protected          bool
	attacked, ctrlKill bool // the fault's steps
	// Set by fault: the instance's app, and the alerts its killed
	// controller had raised, which outlive it as in any alert sink.
	app        *app.App
	deadAlerts int
}

// fault is every standalone scenario's fault step. A controller kill
// snapshots key state (protected mode), kills the controller and brings
// up a fresh one in a.Ctrl over the same durable store, which
// re-registers the switch and runs warm recovery. The attack then
// installs the app's stack adversary.
func (in *instance) fault(a *app.App, attack func() error) error {
	in.app = a
	if in.ctrlKill {
		st := statestore.NewMem()
		if in.protected {
			if err := a.Ctrl.EnableCrashSafety(st); err != nil {
				return fmt.Errorf("fleet: enable crash safety: %w", err)
			}
			if err := a.Ctrl.SaveSnapshot(a.Name); err != nil {
				return fmt.Errorf("fleet: snapshot %s: %w", a.Name, err)
			}
		}
		in.deadAlerts = a.Ctrl.AlertCount()
		a.Ctrl.Kill()
		a.Ctrl = controller.New(crypto.NewSeededRand(in.seed*0x9E3779B9 + 0xC0))
		if in.protected {
			if err := a.Ctrl.EnableCrashSafety(st); err != nil {
				return err
			}
		}
		if err := a.Ctrl.Register(a.Name, a.Host, a.Cfg, 0); err != nil {
			return fmt.Errorf("fleet: re-register %s: %w", a.Name, err)
		}
		if in.protected {
			if _, err := a.Ctrl.RecoverAll(); err != nil {
				return fmt.Errorf("fleet: recover %s: %w", a.Name, err)
			}
		}
	}
	if in.attacked {
		return attack()
	}
	return nil
}

// do runs a scenario's operations in order and stops at the first error.
func do(ops ...func() error) error {
	for _, op := range ops {
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

const ncKeySpace = 64

func ncZipf(s *netcache.System, n int) error {
	for i := 0; i < n; {
		for k := uint32(0); k < ncKeySpace && i < n; k++ {
			reps := ncKeySpace / (int(k) + 1)
			for r := 0; r < reps && i < n; r++ {
				if _, err := s.Query(k); err != nil {
					return err
				}
				i++
			}
		}
	}
	return nil
}

func ncCandidates() []uint32 {
	out := make([]uint32, ncKeySpace)
	for i := range out {
		out[i] = uint32(ncKeySpace - 1 - i)
	}
	return out
}

func runNetcache(in *instance) (Cell, error) {
	p := netcache.DefaultParams(in.protected)
	p.Name, p.Seed = in.name, in.seed
	s, err := netcache.New(p)
	if err != nil {
		return Cell{}, err
	}
	zipf := func() error { return ncZipf(s, 1500) }
	epoch := func() error { return s.UpdateEpoch(ncCandidates()) }
	epochsBefore := 0 // set by the attack, read only under it
	fault := func() error {
		return in.fault(s.App, func() error {
			epochsBefore = s.Epochs
			return s.InstallStatDeflater(3)
		})
	}
	if err := do(zipf, epoch, fault, zipf, epoch, s.ResetCounters, zipf); err != nil {
		return Cell{}, err
	}
	rate, err := s.HitRate()
	if err != nil {
		return Cell{}, err
	}
	res := Cell{Score: rate, Detected: s.SkippedEpochs, Sent: 4500}
	if in.attacked {
		// Epochs that completed on deflated stats consumed forged data.
		res.ForgedApplied = s.Epochs - epochsBefore
	}
	return res, nil
}

func runFlowradar(in *instance) (Cell, error) {
	p := flowradar.DefaultParams(in.protected)
	p.Name, p.Seed = in.name, in.seed
	s, err := flowradar.New(p)
	if err != nil {
		return Cell{}, err
	}
	truth := make(map[uint32]uint32, 150)
	var ops uint64
	for f := uint32(1); f <= 150; f++ {
		pkts := f%13 + 1
		truth[f] = pkts
		ops += uint64(pkts)
		for i := uint32(0); i < pkts; i++ {
			if err := s.Packet(f); err != nil {
				return Cell{}, err
			}
		}
	}
	if err := in.fault(s.App, s.InstallExportDeflater); err != nil {
		return Cell{}, err
	}
	decoded, err := s.Decode()
	res := Cell{Detected: s.TamperedReads, Sent: ops}
	if err == nil {
		right := 0
		for f, want := range truth {
			if decoded[f] == want {
				right++
			}
		}
		res.Score = float64(right) / float64(len(truth))
		if in.attacked {
			res.ForgedApplied = len(truth) - right
		}
	} else if in.attacked {
		// Peel failed outright on forged cells: the analysis is poisoned.
		res.ForgedApplied = len(truth)
	} else {
		return Cell{}, err
	}
	return res, nil
}

func runBlink(in *instance) (Cell, error) {
	const primaryPort, backupPort, newBackupPort, blackhole = 2, 3, 4, 9
	p := blink.DefaultParams(in.protected)
	p.Name, p.Seed = in.name, in.seed
	s, err := blink.New(p, primaryPort, backupPort)
	if err != nil {
		return Cell{}, err
	}
	if err := in.fault(s.App, func() error { return s.InstallNexthopRewriter(blackhole) }); err != nil {
		return Cell{}, err
	}
	if err := s.WriteNexthop(blink.RegBackup, 5, newBackupPort); err != nil {
		return Cell{}, err
	}
	for i := 0; i < blink.FailThreshold; i++ {
		if _, err := s.Packet(5, true); err != nil {
			return Cell{}, err
		}
	}
	port, err := s.Packet(5, false)
	if err != nil {
		return Cell{}, err
	}
	res := Cell{Detected: s.TamperedWrites, Sent: blink.FailThreshold + 1}
	if port == newBackupPort {
		res.Score = 1
	}
	if port == blackhole {
		res.ForgedApplied = 1
	}
	return res, nil
}

func nwDrive(s *netwarden.System, conns, covert, packets int, startNs uint64) ([]int, error) {
	forwarded := make([]int, conns)
	jit := []uint64{400_000, 2_600_000, 900_000, 1_800_000, 600_000}
	for i := 0; i < packets; i++ {
		for c := 0; c < conns; c++ {
			var at uint64
			if c < covert {
				at = startNs + uint64(i+1)*1_000_000
			} else {
				at = startNs + uint64(i)*1_500_000 + jit[(i+c)%len(jit)]
			}
			ok, err := s.Packet(uint16(c), at)
			if err != nil {
				return nil, err
			}
			if ok {
				forwarded[c]++
			}
		}
	}
	return forwarded, nil
}

func runNetwarden(in *instance) (Cell, error) {
	const conns, covert, threshold = 16, 4, 100_000 // four covert channels among 16
	s, err := netwarden.New(netwarden.Params{Conns: conns, Secure: in.protected, Name: in.name, Seed: in.seed})
	if err != nil {
		return Cell{}, err
	}
	if _, err := nwDrive(s, conns, covert, 30, 1_000_000); err != nil {
		return Cell{}, err
	}
	if err := in.fault(s.App, s.InstallScoreInflater); err != nil {
		return Cell{}, err
	}
	if err := s.Sweep(threshold); err != nil {
		return Cell{}, err
	}
	after, err := nwDrive(s, conns, covert, 10, 500_000_000)
	if err != nil {
		return Cell{}, err
	}
	res := Cell{Detected: s.TamperedOps, Sent: conns * 40}
	correct := 0
	for c := 0; c < conns; c++ {
		v, err := s.Verdict(c)
		if err != nil {
			return Cell{}, err
		}
		if c < covert {
			if v == 1 && after[c] == 0 {
				correct++
			} else if in.attacked {
				res.ForgedApplied++ // a covert channel evaded the sweep
			}
		} else if v == 0 && after[c] > 0 {
			correct++
		}
	}
	res.Score = float64(correct) / float64(conns)
	return res, nil
}

func runSilkroad(in *instance) (Cell, error) {
	p := silkroad.DefaultParams(in.protected)
	p.Name, p.Seed = in.name, in.seed
	s, err := silkroad.New(p)
	if err != nil {
		return Cell{}, err
	}
	connect := func(from, to uint32) func() error {
		return func() error {
			for c := from; c < to; c++ {
				if _, err := s.Packet(c, true); err != nil {
					return err
				}
			}
			return nil
		}
	}
	fault := func() error { return in.fault(s.App, s.InstallClearSuppressor) }
	if err := do(connect(1, 21), fault, s.BeginMigration, connect(100, 120), s.FinishMigration,
		s.ResetCounters, connect(200, 300)); err != nil {
		return Cell{}, err
	}
	oldPool, newPool, err := s.Served()
	if err != nil {
		return Cell{}, err
	}
	wrongFrac := float64(oldPool) / float64(oldPool+newPool)
	// 20 pre-migration + 20 transit + 100 fresh connections.
	res := Cell{Score: 1 - wrongFrac, Detected: s.TamperedWrites, Sent: 140}
	if in.attacked && wrongFrac > 0.5 {
		res.ForgedApplied = 1 // the suppressed clear pinned fresh traffic to the retired pool
	}
	return res, nil
}

func runRoutescout(in *instance) (Cell, error) {
	cfg := routescout.DefaultConfig(app.ModeOf(in.protected))
	cfg.Name, cfg.Seed = in.name, in.seed
	s, err := routescout.New(cfg)
	if err != nil {
		return Cell{}, err
	}
	if in.protected {
		if _, err := s.Ctrl.LocalKeyInit(in.name); err != nil {
			return Cell{}, err
		}
	}
	if err := in.fault(s.App, func() error { return s.InstallLatencyInflater(20) }); err != nil {
		return Cell{}, err
	}
	tcfg := trace.DefaultConfig(uint64(800 * 1e6))
	tcfg.FlowsPerSecond = 800
	tcfg.Seed = 42
	pkts := trace.NewStream(tcfg).Fork(in.seed).Generate()
	p1, p2, err := s.Run(cfg, pkts)
	if err != nil {
		return Cell{}, err
	}
	res := Cell{Score: p1, Detected: s.TamperedReads, Sent: uint64(len(pkts))}
	if in.attacked && p2 > 0.60 {
		res.ForgedApplied = 1 // the inflated latency diverted traffic to the slow path
	}
	return res, nil
}

func runSketch(in *instance) (Cell, error) {
	hp := sketch.DefaultHHParams(in.protected)
	hp.CMSRows = 4
	hp.Name, hp.Seed = in.name, in.seed
	s, err := sketch.NewHH(hp)
	if err != nil {
		return Cell{}, err
	}
	elephants := []uint32{101, 202}
	cands := append([]uint32{}, elephants...)
	for _, f := range elephants {
		for i := 0; i < 60; i++ {
			if err := s.Packet(f); err != nil {
				return Cell{}, err
			}
		}
	}
	for f := uint32(2000); f < 2040; f++ {
		cands = append(cands, f)
		if err := s.Packet(f); err != nil {
			return Cell{}, err
		}
	}
	if err := s.PromoteEpoch(cands, 50); err != nil {
		return Cell{}, err
	}
	epochsBefore := s.Epochs
	if err := in.fault(s.App, func() error { return s.InstallCountDeflater(10) }); err != nil {
		return Cell{}, err
	}
	if err := s.PromoteEpoch(cands, 50); err != nil {
		return Cell{}, err
	}
	watch, err := s.Watchlist()
	if err != nil {
		return Cell{}, err
	}
	on := map[uint32]bool{}
	for _, f := range watch {
		on[f] = true
	}
	kept := 0
	for _, f := range elephants {
		if on[f] {
			kept++
		}
	}
	// 2*60 elephant + 40 mouse packets.
	res := Cell{Score: float64(kept) / float64(len(elephants)), Detected: s.SkippedEpochs, Sent: 2*60 + 40}
	if in.attacked && s.Epochs > epochsBefore && kept < len(elephants) {
		res.ForgedApplied = 1 // an epoch promoted on deflated counts and dropped elephants
	}
	return res, nil
}
