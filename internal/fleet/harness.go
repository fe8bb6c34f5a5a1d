// The unified scenario harness: one entrypoint runs any of the eight
// protected apps under any fault of the fault table (matrix.go),
// protection on or off, and returns a matrix cell plus a deterministic
// event trace.
package fleet

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"p4auth/internal/crypto"
	"p4auth/internal/hula"
	"p4auth/internal/netsim"
	"p4auth/internal/trace"
)

// Options parameterizes a harness run.
type Options struct {
	// K is the fat-tree arity for the fabric app and the instance count
	// (one per pod) for standalone apps.
	K int
	// Seed drives every PRNG: topology, fault schedule, load.
	Seed uint64
}

// DefaultOptions is a k=4 run.
func DefaultOptions() Options {
	return Options{K: 4, Seed: 0xFA77}
}

// RunCell runs one (app, fault, protected) scenario and returns the
// matrix cell plus its deterministic trace.
func RunCell(app, fault string, protected bool, o Options) (Cell, string, error) {
	if o.K < 4 || o.K%2 != 0 {
		return Cell{}, "", fmt.Errorf("fleet: bad arity %d", o.K)
	}
	for _, f := range faults {
		if f.name != fault {
			continue
		}
		if app == "hula" {
			return runFabricCell(f, protected, o)
		}
		if a, ok := standaloneApps[app]; ok && !f.fabricOnly {
			return runStandaloneCell(app, a, f, protected, o)
		}
	}
	return Cell{}, "", fmt.Errorf("fleet: app %q does not run fault %q", app, fault)
}

// runStandaloneCell drives one pod-replicated standalone app: its cell
// sums the pods' cells and averages their scores.
func runStandaloneCell(app string, a standaloneApp, f fault, protected bool, o Options) (Cell, string, error) {
	cell := Cell{App: app, Fault: f.name, Protected: protected}
	tr := []string{fmt.Sprintf("cell %s fault=%s protected=%v pods=%d", app, f.name, protected, o.K)}
	var scoreSum float64
	for pod := 0; pod < o.K; pod++ {
		in := &instance{name: fmt.Sprintf("%s-p%d", app, pod), seed: o.Seed + uint64(pod)*0x1000 + 1,
			protected: protected, attacked: f.steps&stepAttack != 0, ctrlKill: f.steps&stepCtrlKill != 0}
		pc, err := a.run(in)
		if err != nil {
			return Cell{}, "", fmt.Errorf("fleet: %s pod %d: %w", app, pod, err)
		}
		// A pod's detections are the app's own count of tampered
		// operations plus every alert its controllers raised.
		pc.Detected += in.deadAlerts + in.app.Ctrl.AlertCount()
		scoreSum += pc.Score
		cell.ForgedApplied += pc.ForgedApplied
		cell.Detected += pc.Detected
		cell.Sent += pc.Sent
		tr = append(tr, fmt.Sprintf("pod=%d score=%.2f forged=%d detected=%t",
			pod, pc.Score, pc.ForgedApplied, pc.Detected > 0))
	}
	cell.Delivered = cell.Sent // a standalone scenario drops none of its operations
	cell.Score = scoreSum / float64(o.K)
	// Unprotected runs survive an attack only if the app stayed healthy;
	// an applied forgery that wrecks the score is the documented
	// corruption.
	cell.Survived = cell.Score >= a.floor
	if protected && cell.ForgedApplied > 0 {
		cell.Survived = false
		cell.Note = "forged operations applied despite protection"
	}
	return cell, strings.Join(tr, "\n") + "\n", nil
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

// The fabric run's clock: probe rounds start at 100 µs, the trace load
// runs for loadDuration from loadStart, and the run ends 3 ms after it.
const (
	loadStart    = 2 * time.Millisecond
	loadDuration = 10 * time.Millisecond
	runEnd       = loadStart + loadDuration + 3*time.Millisecond
)

// runFabricCell drives the HULA fat-tree fabric under trace load with
// the fault's seeded schedule.
func runFabricCell(f fault, protected bool, o Options) (Cell, string, error) {
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
	for at := 100 * time.Microsecond; at < runEnd; at += 200 * time.Microsecond {
		for _, e := range topo.Edges {
			sim.At(at, func() { topo.InjectProbe(e) })
		}
	}

	// Per-edge trace load: forked streams on disjoint flow spaces, each
	// packet sent to a destination ToR picked by flow (stable per flow,
	// spread across the fabric).
	tcfg := trace.DefaultConfig(uint64(loadDuration))
	tcfg.Seed = o.Seed
	base := trace.NewStream(tcfg)
	var sent uint64
	n := len(topo.Edges)
	for src, e := range topo.Edges {
		for _, p := range base.Fork(uint64(src)).Generate() {
			dst := topo.TorID[topo.Edges[(src+1+int(p.Flow)%(n-1))%n]]
			sim.At(loadStart+time.Duration(p.AtNs), func() { topo.SendData(e, dst, p.Flow, p.Size) })
			sent++
		}
	}
	logf(0, "fabric k=%d protected=%v fault=%s load=%d pkts", o.K, protected, f.name, sent)

	// The fault's steps, in step order. An outage begins start plus a
	// seeded jitter of up to 1 ms into the load and ends dur later.
	recoveryErrs := 0
	recovery := func(rec func() error) func() {
		return func() {
			if rec() != nil {
				recoveryErrs++
			}
		}
	}
	outage := func(start, dur time.Duration, down, up func()) (at, end time.Duration) {
		at = loadStart + start + time.Duration(rng.Uint64()%uint64(time.Millisecond))
		sim.At(at, down)
		sim.At(at+dur, up)
		return at, at + dur
	}
	cutPod := func(cut func(...string) []*netsim.Link) (at, heal time.Duration) {
		members := topo.PodMembers(o.K - 1)
		return outage(time.Millisecond, 1500*time.Microsecond, func() { cut(members...) }, func() { topo.Net.Heal() })
	}
	kill, restart := func() { topo.Ctrl.Kill() }, recovery(topo.RecoverController)
	for s := stepAttack; s <= stepSwCrash; s <<= 1 {
		switch f.steps & s {
		case stepAttack:
			at := loadStart - 500*time.Microsecond
			sim.At(at, func() {
				topo.Net.LinkBetween(attackedAgg, victimEdge).SetTap(victimEdge, hula.ForgeUtilTap(protected, 0))
			})
			logf(at, "attack: forge probe util on %s->%s", attackedAgg, victimEdge)
		case stepFlap:
			// Flap one seeded agg-core link twice.
			lk := topo.Links[len(topo.Links)-1-int(rng.Uint64()%uint64(len(topo.Links)/2))]
			for c := 0; c < 2; c++ {
				down, up := outage(time.Duration(c)*3*time.Millisecond, time.Millisecond,
					func() { lk.L.SetDown(true) }, func() { lk.L.SetDown(false) })
				logf(down, "flap: %s-%s down", lk.A, lk.B)
				logf(up, "flap: %s-%s up", lk.A, lk.B)
			}
		case stepPartition:
			at, heal := cutPod(topo.Net.Partition)
			logf(at, "partition: pod %d isolated", o.K-1)
			logf(heal, "partition healed")
		case stepWANPartition:
			// Asymmetric cut: inbound into the last pod dies, outbound
			// keeps flowing — the half-open failure WAN links actually
			// exhibit. A latency spike on one agg-core link rides along
			// for the heal window's reconvergence.
			at, heal := cutPod(topo.Net.PartitionAsym)
			lk := topo.Links[int(rng.Uint64()%uint64(len(topo.Links)/2))]
			sim.At(0, func() { _ = lk.L.AddLatencySpike(lk.A, at, heal+2*time.Millisecond, 200*time.Microsecond) })
			logf(at, "wanpartition: inbound to pod %d cut, spike on %s-%s", o.K-1, lk.A, lk.B)
			logf(heal, "wanpartition healed")
		case stepCtrlKill:
			at, rec := outage(2*time.Millisecond, time.Millisecond, kill, restart)
			logf(at, "ctrlkill")
			logf(rec, "controller recovered")
		case stepGlobalKill:
			// The broker/controller tier goes fully dark for an extended
			// window — triple the ctrlkill outage. The data plane forwards
			// on committed state throughout; recovery re-registers and
			// resyncs.
			at, rec := outage(time.Millisecond, 3*time.Millisecond, kill, restart)
			logf(at, "globalkill: control tier dark")
			logf(rec, "global controller recovered")
		case stepSwCrash:
			if err := topo.SaveDeviceStates(1); err != nil {
				return Cell{}, "", err
			}
			at, rec := outage(4*time.Millisecond, 1500*time.Microsecond, func() { topo.CrashSwitch(crashTarget) },
				recovery(func() error { return topo.RebootSwitch(crashTarget) }))
			logf(at, "swcrash: %s", crashTarget)
			logf(rec, "switch rebooted warm")
		}
	}

	sim.RunUntil(runEnd)

	cell := Cell{App: "hula", Fault: f.name, Protected: protected, Sent: sent}
	for _, h := range topo.Hosts {
		cell.Delivered += h.Packets
	}
	if sent > 0 {
		cell.Score = float64(cell.Delivered) / float64(sent)
	}
	cell.Detected = topo.TotalAlerts() + topo.Ctrl.AlertCount()
	shares, err := topo.UplinkShares(victimEdge)
	if err != nil {
		return Cell{}, "", err
	}
	if f.steps&stepAttack != 0 && shares[attackedPort] > 0.75 {
		// The forged probes steered the victim's traffic onto the
		// attacker's uplink: the forgery took effect.
		cell.ForgedApplied = 1
	}
	cell.Survived = cell.Score >= f.floor && recoveryErrs == 0 && cell.ForgedApplied == 0
	if protected && cell.ForgedApplied > 0 {
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
	logf(runEnd, "victim=%s shares=%.2f detected=%t score=%.2f forged=%d",
		victimEdge, shares, cell.Detected > 0, cell.Score, cell.ForgedApplied)
	return cell, strings.Join(tr, "\n") + "\n", nil
}
