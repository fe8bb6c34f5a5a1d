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

// instOpts parameterizes one standalone instance run.
type instOpts struct {
	name      string
	seed      uint64
	protected bool
	attacked  bool
	ctrlKill  bool
}

// instResult is one instance's outcome.
type instResult struct {
	score    float64
	forged   int
	detected int
	// ops counts the data-plane operations the scenario drove (queries,
	// packets, connections) — the throughput denominator.
	ops uint64
}

// killAndRecover models a controller process death: snapshot key state
// (protected mode), kill the old process, and bring up a fresh
// controller over the same durable store, re-registering the switch and
// running warm recovery. The fresh controller replaces a.Ctrl; the
// result is the alert count the dead controller had accumulated (its log
// survives the process, as any external alert sink would).
func killAndRecover(a *app.App, protected bool, seed uint64) (int, error) {
	var st *statestore.Mem
	if protected {
		st = statestore.NewMem()
		if err := a.Ctrl.EnableCrashSafety(st); err != nil {
			return 0, fmt.Errorf("fleet: enable crash safety: %w", err)
		}
		if err := a.Ctrl.SaveSnapshot(a.Name); err != nil {
			return 0, fmt.Errorf("fleet: snapshot %s: %w", a.Name, err)
		}
	}
	oldAlerts := a.Ctrl.AlertCount()
	a.Ctrl.Kill()
	a.Ctrl = controller.New(crypto.NewSeededRand(seed*0x9E3779B9 + 0xC0))
	if protected {
		if err := a.Ctrl.EnableCrashSafety(st); err != nil {
			return 0, err
		}
	}
	if err := a.Ctrl.Register(a.Name, a.Host, a.Cfg, 0); err != nil {
		return 0, fmt.Errorf("fleet: re-register %s: %w", a.Name, err)
	}
	if protected {
		if _, err := a.Ctrl.RecoverAll(); err != nil {
			return 0, fmt.Errorf("fleet: recover %s: %w", a.Name, err)
		}
	}
	return oldAlerts, nil
}

// --- netcache ---

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

func runNetcache(io instOpts) (instResult, error) {
	p := netcache.DefaultParams(io.protected)
	p.Name, p.Seed = io.name, io.seed
	s, err := netcache.New(p)
	if err != nil {
		return instResult{}, err
	}
	if err := ncZipf(s, 1500); err != nil {
		return instResult{}, err
	}
	if err := s.UpdateEpoch(ncCandidates()); err != nil {
		return instResult{}, err
	}
	oldAlerts := 0
	if io.ctrlKill {
		oldAlerts, err = killAndRecover(s.App, io.protected, io.seed)
		if err != nil {
			return instResult{}, err
		}
	}
	epochsBefore := s.Epochs
	if io.attacked {
		if err := s.InstallStatDeflater(3); err != nil {
			return instResult{}, err
		}
	}
	if err := ncZipf(s, 1500); err != nil {
		return instResult{}, err
	}
	if err := s.UpdateEpoch(ncCandidates()); err != nil {
		return instResult{}, err
	}
	if err := s.ResetCounters(); err != nil {
		return instResult{}, err
	}
	if err := ncZipf(s, 1500); err != nil {
		return instResult{}, err
	}
	rate, err := s.HitRate()
	if err != nil {
		return instResult{}, err
	}
	res := instResult{score: rate, detected: s.SkippedEpochs + oldAlerts + s.Ctrl.AlertCount(), ops: 4500}
	if io.attacked {
		// Epochs that completed on deflated stats consumed forged data.
		res.forged = s.Epochs - epochsBefore
	}
	return res, nil
}

// --- flowradar ---

func runFlowradar(io instOpts) (instResult, error) {
	p := flowradar.DefaultParams(io.protected)
	p.Name, p.Seed = io.name, io.seed
	s, err := flowradar.New(p)
	if err != nil {
		return instResult{}, err
	}
	truth := make(map[uint32]uint32, 150)
	var ops uint64
	for f := uint32(1); f <= 150; f++ {
		pkts := f%13 + 1
		truth[f] = pkts
		ops += uint64(pkts)
		for i := uint32(0); i < pkts; i++ {
			if err := s.Packet(f); err != nil {
				return instResult{}, err
			}
		}
	}
	oldAlerts := 0
	if io.ctrlKill {
		oldAlerts, err = killAndRecover(s.App, io.protected, io.seed)
		if err != nil {
			return instResult{}, err
		}
	}
	if io.attacked {
		if err := s.InstallExportDeflater(); err != nil {
			return instResult{}, err
		}
	}
	decoded, err := s.Decode()
	res := instResult{ops: ops}
	if err == nil {
		right := 0
		for f, want := range truth {
			if decoded[f] == want {
				right++
			}
		}
		res.score = float64(right) / float64(len(truth))
		if io.attacked {
			res.forged = len(truth) - right
		}
	} else if io.attacked {
		// Peel failed outright on forged cells: the analysis is poisoned.
		res.forged = len(truth)
	} else {
		return instResult{}, err
	}
	res.detected = s.TamperedReads + oldAlerts + s.Ctrl.AlertCount()
	return res, nil
}

// --- blink ---

func runBlink(io instOpts) (instResult, error) {
	const (
		primaryPort   = 2
		backupPort    = 3
		newBackupPort = 4
		blackhole     = 9
	)
	p := blink.DefaultParams(io.protected)
	p.Name, p.Seed = io.name, io.seed
	s, err := blink.New(p, primaryPort, backupPort)
	if err != nil {
		return instResult{}, err
	}
	oldAlerts := 0
	if io.ctrlKill {
		oldAlerts, err = killAndRecover(s.App, io.protected, io.seed)
		if err != nil {
			return instResult{}, err
		}
	}
	if io.attacked {
		if err := s.InstallNexthopRewriter(blackhole); err != nil {
			return instResult{}, err
		}
	}
	if err := s.WriteNexthop(blink.RegBackup, 5, newBackupPort); err != nil {
		return instResult{}, err
	}
	for i := 0; i < blink.FailThreshold; i++ {
		if _, err := s.Packet(5, true); err != nil {
			return instResult{}, err
		}
	}
	port, err := s.Packet(5, false)
	if err != nil {
		return instResult{}, err
	}
	res := instResult{detected: s.TamperedWrites + oldAlerts + s.Ctrl.AlertCount(), ops: blink.FailThreshold + 1}
	if port == newBackupPort {
		res.score = 1
	}
	if port == blackhole {
		res.forged = 1
	}
	return res, nil
}

// --- netwarden ---

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

func runNetwarden(io instOpts) (instResult, error) {
	const (
		conns     = 16
		covert    = 4
		threshold = 100_000
	)
	s, err := netwarden.New(netwarden.Params{Conns: conns, Secure: io.protected, Name: io.name, Seed: io.seed})
	if err != nil {
		return instResult{}, err
	}
	if _, err := nwDrive(s, conns, covert, 30, 1_000_000); err != nil {
		return instResult{}, err
	}
	oldAlerts := 0
	if io.ctrlKill {
		oldAlerts, err = killAndRecover(s.App, io.protected, io.seed)
		if err != nil {
			return instResult{}, err
		}
	}
	if io.attacked {
		if err := s.InstallScoreInflater(); err != nil {
			return instResult{}, err
		}
	}
	if err := s.Sweep(threshold); err != nil {
		return instResult{}, err
	}
	after, err := nwDrive(s, conns, covert, 10, 500_000_000)
	if err != nil {
		return instResult{}, err
	}
	res := instResult{detected: s.TamperedOps + oldAlerts + s.Ctrl.AlertCount(), ops: conns * 40}
	correct := 0
	for c := 0; c < conns; c++ {
		v, err := s.Verdict(c)
		if err != nil {
			return instResult{}, err
		}
		if c < covert {
			if v == 1 && after[c] == 0 {
				correct++
			} else if io.attacked {
				res.forged++ // a covert channel evaded the sweep
			}
		} else if v == 0 && after[c] > 0 {
			correct++
		}
	}
	res.score = float64(correct) / float64(conns)
	return res, nil
}

// --- silkroad ---

func runSilkroad(io instOpts) (instResult, error) {
	p := silkroad.DefaultParams(io.protected)
	p.Name, p.Seed = io.name, io.seed
	s, err := silkroad.New(p)
	if err != nil {
		return instResult{}, err
	}
	for c := uint32(1); c <= 20; c++ {
		if _, err := s.Packet(c, true); err != nil {
			return instResult{}, err
		}
	}
	oldAlerts := 0
	if io.ctrlKill {
		oldAlerts, err = killAndRecover(s.App, io.protected, io.seed)
		if err != nil {
			return instResult{}, err
		}
	}
	if io.attacked {
		if err := s.InstallClearSuppressor(); err != nil {
			return instResult{}, err
		}
	}
	if err := s.BeginMigration(); err != nil {
		return instResult{}, err
	}
	for c := uint32(100); c < 120; c++ {
		if _, err := s.Packet(c, true); err != nil {
			return instResult{}, err
		}
	}
	if err := s.FinishMigration(); err != nil {
		return instResult{}, err
	}
	if err := s.ResetCounters(); err != nil {
		return instResult{}, err
	}
	for c := uint32(200); c < 300; c++ {
		if _, err := s.Packet(c, true); err != nil {
			return instResult{}, err
		}
	}
	oldPool, newPool, err := s.Served()
	if err != nil {
		return instResult{}, err
	}
	wrongFrac := float64(oldPool) / float64(oldPool+newPool)
	res := instResult{
		score:    1 - wrongFrac,
		detected: s.TamperedWrites + oldAlerts + s.Ctrl.AlertCount(),
		ops:      140, // 20 pre-migration + 20 transit + 100 fresh connections
	}
	if io.attacked && wrongFrac > 0.5 {
		res.forged = 1 // the suppressed clear pinned fresh traffic to the retired pool
	}
	return res, nil
}

// --- routescout ---

func runRoutescout(io instOpts) (instResult, error) {
	cfg := routescout.DefaultConfig(app.ModeOf(io.protected))
	cfg.Name, cfg.Seed = io.name, io.seed
	s, err := routescout.New(cfg)
	if err != nil {
		return instResult{}, err
	}
	if io.protected {
		if _, err := s.Ctrl.LocalKeyInit(io.name); err != nil {
			return instResult{}, err
		}
	}
	oldAlerts := 0
	if io.ctrlKill {
		oldAlerts, err = killAndRecover(s.App, io.protected, io.seed)
		if err != nil {
			return instResult{}, err
		}
	}
	if io.attacked {
		if err := s.InstallLatencyInflater(20); err != nil {
			return instResult{}, err
		}
	}
	tcfg := trace.DefaultConfig(uint64(800 * 1e6))
	tcfg.FlowsPerSecond = 800
	tcfg.Seed = 42
	pkts := trace.NewStream(tcfg).Fork(io.seed).Generate()
	p1, p2, err := s.Run(cfg, pkts)
	if err != nil {
		return instResult{}, err
	}
	res := instResult{
		score:    p1,
		detected: s.TamperedReads + oldAlerts + s.Ctrl.AlertCount(),
		ops:      uint64(len(pkts)),
	}
	if io.attacked && p2 > 0.60 {
		res.forged = 1 // the inflated latency diverted traffic to the slow path
	}
	return res, nil
}

// --- sketch (heavy hitter) ---

func runSketch(io instOpts) (instResult, error) {
	hp := sketch.DefaultHHParams(io.protected)
	hp.CMSRows = 4
	hp.Name, hp.Seed = io.name, io.seed
	s, err := sketch.NewHH(hp)
	if err != nil {
		return instResult{}, err
	}
	elephants := []uint32{101, 202}
	cands := append([]uint32{}, elephants...)
	for _, f := range elephants {
		for i := 0; i < 60; i++ {
			if err := s.Packet(f); err != nil {
				return instResult{}, err
			}
		}
	}
	for f := uint32(2000); f < 2040; f++ {
		cands = append(cands, f)
		if err := s.Packet(f); err != nil {
			return instResult{}, err
		}
	}
	if err := s.PromoteEpoch(cands, 50); err != nil {
		return instResult{}, err
	}
	oldAlerts := 0
	if io.ctrlKill {
		oldAlerts, err = killAndRecover(s.App, io.protected, io.seed)
		if err != nil {
			return instResult{}, err
		}
	}
	epochsBefore := s.Epochs
	if io.attacked {
		if err := s.InstallCountDeflater(10); err != nil {
			return instResult{}, err
		}
	}
	if err := s.PromoteEpoch(cands, 50); err != nil {
		return instResult{}, err
	}
	watch, err := s.Watchlist()
	if err != nil {
		return instResult{}, err
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
	res := instResult{
		score:    float64(kept) / float64(len(elephants)),
		detected: s.SkippedEpochs + oldAlerts + s.Ctrl.AlertCount(),
		ops:      2*60 + 40, // elephant + mouse packets
	}
	if io.attacked && s.Epochs > epochsBefore && kept < len(elephants) {
		res.forged = 1 // an epoch promoted on deflated counts and dropped elephants
	}
	return res, nil
}

// standaloneRunners maps app name to its per-instance driver and the
// survival floor its score must meet.
var standaloneRunners = map[string]struct {
	run   func(instOpts) (instResult, error)
	floor float64
}{
	"netcache":   {runNetcache, 0.40},
	"flowradar":  {runFlowradar, 0.95},
	"blink":      {runBlink, 1.0},
	"netwarden":  {runNetwarden, 0.99},
	"silkroad":   {runSilkroad, 0.99},
	"routescout": {runRoutescout, 0.35},
	"sketch":     {runSketch, 1.0},
}
