// The unified scenario harness: one entrypoint runs any of the eight
// protected apps under any fault, protection on or off, and returns a
// matrix cell plus a deterministic event trace.
package fleet

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"p4auth/internal/crypto"
	"p4auth/internal/hula"
	"p4auth/internal/trace"
)

// Options parameterizes a harness run.
type Options struct {
	// K is the fat-tree arity for the fabric app and the instance count
	// (one per pod) for standalone apps.
	K int
	// Seed drives every PRNG: topology, fault schedule, load.
	Seed uint64
	// LoadDuration is the fabric data window; zero means 10 ms.
	LoadDuration time.Duration
	// FlowsPerSecond scales the per-edge trace load; zero keeps the
	// trace default (2000/s).
	FlowsPerSecond float64
}

// DefaultOptions is a k=4 run.
func DefaultOptions() Options {
	return Options{K: 4, Seed: 0xFA77}
}

func (o Options) loadDuration() time.Duration {
	if o.LoadDuration == 0 {
		return 10 * time.Millisecond
	}
	return o.LoadDuration
}

// RunCell runs one (app, fault, protected) scenario and returns the
// matrix cell plus its deterministic trace.
func RunCell(app, fault string, protected bool, o Options) (Cell, string, error) {
	if o.K < 4 || o.K%2 != 0 {
		return Cell{}, "", fmt.Errorf("fleet: bad arity %d", o.K)
	}
	ok := false
	for _, f := range FaultsFor(app) {
		if f == fault {
			ok = true
		}
	}
	if !ok {
		return Cell{}, "", fmt.Errorf("fleet: app %s does not run fault %s", app, fault)
	}
	if app == "hula" {
		return runFabricCell(fault, protected, o)
	}
	return runStandaloneCell(app, fault, protected, o)
}

// RunMatrix runs the full app × fault × protection matrix.
func RunMatrix(o Options) (*Matrix, error) {
	m := &Matrix{K: o.K, Seed: o.Seed}
	for _, app := range Apps() {
		for _, fault := range FaultsFor(app) {
			for _, protected := range []bool{true, false} {
				cell, _, err := RunCell(app, fault, protected, o)
				if err != nil {
					return nil, fmt.Errorf("fleet: %s/%s/protected=%v: %w", app, fault, protected, err)
				}
				m.Cells = append(m.Cells, cell)
			}
		}
	}
	return m, nil
}

// runStandaloneCell drives one pod-replicated standalone app.
func runStandaloneCell(app, fault string, protected bool, o Options) (Cell, string, error) {
	r, ok := standaloneRunners[app]
	if !ok {
		return Cell{}, "", fmt.Errorf("fleet: unknown app %q", app)
	}
	attacked := fault == FaultAttack || fault == FaultComposed
	ctrlKill := fault == FaultCtrlKill || fault == FaultComposed
	cell := Cell{App: app, Fault: fault, Protected: protected, Survived: true}
	var tr []string
	var scoreSum float64
	for pod := 0; pod < o.K; pod++ {
		io := instOpts{
			name:      fmt.Sprintf("%s-p%d", app, pod),
			seed:      o.Seed + uint64(pod)*0x1000 + 1,
			protected: protected,
			attacked:  attacked,
			ctrlKill:  ctrlKill,
		}
		res, err := r.run(io)
		if err != nil {
			return Cell{}, "", fmt.Errorf("fleet: %s pod %d: %w", app, pod, err)
		}
		scoreSum += res.score
		cell.ForgedApplied += res.forged
		cell.Detected += res.detected
		cell.Sent += res.ops
		cell.Delivered += res.ops
		tr = append(tr, fmt.Sprintf("pod=%d score=%.2f forged=%d detected=%t",
			pod, res.score, res.forged, res.detected > 0))
	}
	cell.Score = scoreSum / float64(o.K)
	if cell.Score < r.floor {
		// Unprotected runs survive an attack only if the app stayed
		// healthy; an applied forgery that wrecks the score is the
		// documented corruption.
		cell.Survived = false
	}
	if protected && cell.ForgedApplied > 0 {
		cell.Survived = false
		cell.Note = "forged operations applied despite protection"
	}
	header := fmt.Sprintf("cell %s fault=%s protected=%v pods=%d", app, fault, protected, o.K)
	return cell, header + "\n" + strings.Join(tr, "\n") + "\n", nil
}

// Fabric fault victims, fixed by convention so traces are comparable:
// the attacker taps the a0_1 → e0_0 probe direction, switch crashes hit
// a1_0, partitions isolate the last pod.
const (
	victimEdge   = "e0_0"
	attackedAgg  = "a0_1"
	crashTarget  = "a1_0"
	attackedPort = 1 // index into UplinkShares(victimEdge) for a0_1
)

// runFabricCell drives the HULA fat-tree fabric under trace load with
// the composed, seeded fault schedule.
func runFabricCell(fault string, protected bool, o Options) (Cell, string, error) {
	cfg := DefaultTopoConfig(o.K)
	cfg.Secure = protected
	cfg.Seed = o.Seed
	topo, err := BuildFatTree(cfg)
	if err != nil {
		return Cell{}, "", err
	}
	rng := crypto.NewSeededRand(o.Seed*7919 + 17)
	var tr []string
	logf := func(at time.Duration, format string, args ...interface{}) {
		tr = append(tr, fmt.Sprintf("t=%v %s", at, fmt.Sprintf(format, args...)))
	}
	sim := topo.Net.Sim

	// Probe rounds every 200 µs for the whole run keep best paths fresh
	// and re-converge them after faults.
	loadStart := 2 * time.Millisecond
	loadEnd := loadStart + o.loadDuration()
	runEnd := loadEnd + 3*time.Millisecond
	for at := 100 * time.Microsecond; at < runEnd; at += 200 * time.Microsecond {
		for _, e := range topo.Edges {
			e := e
			sim.At(at, func() { topo.InjectProbe(e) })
		}
	}

	// Per-edge trace load: forked streams on disjoint flow spaces, each
	// packet sent to a destination ToR picked by flow (stable per flow,
	// spread across the fabric).
	tcfg := trace.DefaultConfig(uint64(o.loadDuration()))
	tcfg.Seed = o.Seed
	if o.FlowsPerSecond > 0 {
		tcfg.FlowsPerSecond = o.FlowsPerSecond
	}
	base := trace.NewStream(tcfg)
	var sent uint64
	tors := make([]uint16, len(topo.Edges))
	for i, e := range topo.Edges {
		tors[i] = topo.TorID[e]
	}
	for i, e := range topo.Edges {
		e := e
		src := i
		pkts := base.Fork(uint64(i)).Generate()
		for _, p := range pkts {
			p := p
			dst := tors[(src+1+int(p.Flow)%(len(tors)-1))%len(tors)]
			sim.At(loadStart+time.Duration(p.AtNs), func() {
				topo.SendData(e, dst, p.Flow, p.Size)
			})
			sent++
		}
	}
	logf(0, "fabric k=%d protected=%v fault=%s load=%d pkts", o.K, protected, fault, sent)

	// Seeded fault schedule inside the load window. Composed runs stack
	// attack + flap + controller kill + switch crash.
	attacked := fault == FaultAttack || fault == FaultComposed
	jitter := func(span time.Duration) time.Duration {
		return time.Duration(rng.Uint64() % uint64(span))
	}
	if attacked {
		at := loadStart - 500*time.Microsecond
		sim.At(at, func() {
			l := topo.Net.LinkBetween(attackedAgg, victimEdge)
			l.SetTap(victimEdge, hula.ForgeUtilTap(protected, 0))
		})
		logf(at, "attack: forge probe util on %s->%s", attackedAgg, victimEdge)
	}
	if fault == FaultFlap || fault == FaultComposed {
		// Flap one seeded agg-core link twice.
		lk := topo.Links[len(topo.Links)-1-int(rng.Uint64()%uint64(len(topo.Links)/2))]
		for c := 0; c < 2; c++ {
			down := loadStart + time.Duration(c)*3*time.Millisecond + jitter(time.Millisecond)
			up := down + time.Millisecond
			sim.At(down, func() { lk.L.SetDown(true) })
			sim.At(up, func() { lk.L.SetDown(false) })
			logf(down, "flap: %s-%s down", lk.A, lk.B)
			logf(up, "flap: %s-%s up", lk.A, lk.B)
		}
	}
	if fault == FaultPartition {
		members := topo.PodMembers(o.K - 1)
		at := loadStart + time.Millisecond + jitter(time.Millisecond)
		heal := at + 1500*time.Microsecond
		sim.At(at, func() { topo.Net.Partition(members...) })
		sim.At(heal, func() { topo.Net.Heal() })
		logf(at, "partition: pod %d isolated", o.K-1)
		logf(heal, "partition healed")
	}
	if fault == FaultWANPartition {
		// Asymmetric cut: inbound into the last pod dies, outbound keeps
		// flowing — the half-open failure WAN links actually exhibit. A
		// latency spike on one agg-core link rides along for the heal
		// window's reconvergence.
		members := topo.PodMembers(o.K - 1)
		at := loadStart + time.Millisecond + jitter(time.Millisecond)
		heal := at + 1500*time.Microsecond
		sim.At(at, func() { topo.Net.PartitionAsym(members...) })
		sim.At(heal, func() { topo.Net.Heal() })
		lk := topo.Links[int(rng.Uint64()%uint64(len(topo.Links)/2))]
		spike := lk.L
		spikeEnd := heal + 2*time.Millisecond
		sim.At(0, func() { _ = spike.AddLatencySpike(lk.A, at, spikeEnd, 200*time.Microsecond) })
		logf(at, "wanpartition: inbound to pod %d cut, spike on %s-%s", o.K-1, lk.A, lk.B)
		logf(heal, "wanpartition healed")
	}
	recoveryErrs := 0
	if fault == FaultCtrlKill || fault == FaultComposed {
		at := loadStart + 2*time.Millisecond + jitter(time.Millisecond)
		rec := at + time.Millisecond
		sim.At(at, func() { topo.Ctrl.Kill() })
		sim.At(rec, func() {
			if err := topo.RecoverController(); err != nil {
				recoveryErrs++
			}
		})
		logf(at, "ctrlkill")
		logf(rec, "controller recovered")
	}
	if fault == FaultGlobalKill {
		// The broker/controller tier goes fully dark for an extended
		// window — triple the ctrlkill outage. The data plane forwards on
		// committed state throughout; recovery re-registers and resyncs.
		at := loadStart + time.Millisecond + jitter(time.Millisecond)
		rec := at + 3*time.Millisecond
		sim.At(at, func() { topo.Ctrl.Kill() })
		sim.At(rec, func() {
			if err := topo.RecoverController(); err != nil {
				recoveryErrs++
			}
		})
		logf(at, "globalkill: control tier dark")
		logf(rec, "global controller recovered")
	}
	if fault == FaultSwCrash || fault == FaultComposed {
		if err := topo.SaveDeviceStates(1); err != nil {
			return Cell{}, "", err
		}
		at := loadStart + 4*time.Millisecond + jitter(time.Millisecond)
		rec := at + 1500*time.Microsecond
		sim.At(at, func() { topo.CrashSwitch(crashTarget) })
		sim.At(rec, func() {
			if err := topo.RebootSwitch(crashTarget); err != nil {
				recoveryErrs++
			}
		})
		logf(at, "swcrash: %s", crashTarget)
		logf(rec, "switch rebooted warm")
	}

	sim.RunUntil(runEnd)

	cell := Cell{App: "hula", Fault: fault, Protected: protected, Sent: sent}
	for _, h := range topo.Hosts {
		cell.Delivered += h.Packets
	}
	if sent > 0 {
		cell.Score = float64(cell.Delivered) / float64(sent)
	}
	cell.Detected = topo.TotalAlerts() + len(topo.Ctrl.Alerts())
	shares, err := topo.UplinkShares(victimEdge)
	if err != nil {
		return Cell{}, "", err
	}
	if attacked && shares[attackedPort] > 0.75 {
		// The forged probes steered the victim's traffic onto the
		// attacker's uplink: the forgery took effect.
		cell.ForgedApplied = 1
	}
	floor := fabricFloor(fault)
	cell.Survived = cell.Score >= floor && recoveryErrs == 0 && cell.ForgedApplied == 0
	if protected && cell.ForgedApplied > 0 {
		cell.Survived = false
		cell.Note = "forged probes steered traffic despite protection"
	}
	if recoveryErrs > 0 {
		cell.Note = "recovery failed"
	}

	// Deterministic footer: per-host delivery in sorted order, victim
	// uplink shares, alert presence.
	hosts := make([]string, 0, len(topo.Hosts))
	for e := range topo.Hosts {
		hosts = append(hosts, e)
	}
	sort.Strings(hosts)
	for _, e := range hosts {
		logf(runEnd, "host %s pkts=%d", e, topo.Hosts[e].Packets)
	}
	logf(runEnd, "victim=%s shares=%s detected=%t score=%.2f forged=%d",
		victimEdge, fmtShares(shares), cell.Detected > 0, cell.Score, cell.ForgedApplied)
	return cell, strings.Join(tr, "\n") + "\n", nil
}

func fabricFloor(fault string) float64 {
	switch fault {
	case FaultNone, FaultAttack, FaultCtrlKill:
		return 0.95
	case FaultFlap:
		return 0.80
	case FaultPartition:
		return 0.60
	case FaultWANPartition:
		// One direction survives the cut, so the floor sits between the
		// full partition's and a healthy run's.
		return 0.65
	case FaultGlobalKill:
		return 0.90
	case FaultSwCrash:
		return 0.70
	default: // composed
		return 0.50
	}
}

func fmtShares(s []float64) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf("%.2f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
