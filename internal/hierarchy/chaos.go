package hierarchy

// Seeded chaos runs for the hierarchical control plane: WAN faults
// (asymmetric partition, forged/torn frame injection, latency spikes)
// against the per-pod tiers and the global key broker, plus a
// global-active kill with election recovery. Single-threaded and
// scripted on the lockstep simulator: equal options produce
// bit-identical traces.
//
// Invariants checked on every run:
//
//   - zero forged broker frames applied (every forgery is dropped and
//     counted, committed link state and data-plane registers match the
//     harness shadow);
//   - no cross-pod key without a fenced global grant: every committed
//     link epoch appears in the audited EvBrokerGrant trail, and total
//     establishes never exceed the broker's served exchanges;
//   - graceful degradation: intra-pod writes keep landing while a pod's
//     WAN is dark, rollovers are deferred and audited, cached keys keep
//     serving;
//   - bounded re-convergence: after the WAN heals, every cross link is
//     back on one committed key within the budget;
//   - at most one fenced active per tier at every sampled instant;
//   - audit <-> metric exact reconciliation for grants, degraded
//     transitions, and deferred rollovers.

import (
	"errors"
	"fmt"
	"time"

	"p4auth/internal/netsim/chaos"
	"p4auth/internal/obs"
)

// ChaosScenario selects the hierarchy failure mode.
type ChaosScenario string

const (
	// ScenarioWANPartition: asymmetric WAN loss against one pod plus
	// latency spikes on another, with forged/torn frame injection before
	// the partition; heal and re-converge.
	ScenarioWANPartition ChaosScenario = "wanpartition"
	// ScenarioGlobalKill: the global broker's active dies; grants are
	// refused until the broker group elects a successor at a new epoch.
	ScenarioGlobalKill ChaosScenario = "globalkill"
)

// ChaosOptions fully determines a hierarchy chaos run.
type ChaosOptions struct {
	// Seed drives every random choice.
	Seed uint64
	// Pods is the fat-tree k (default 4).
	Pods int
	// Scenario is the failure mode.
	Scenario ChaosScenario
	// ReconvergeBudget bounds, in virtual time, the span from WAN heal
	// (or election) to every cross link back on one committed key
	// (default 250ms).
	ReconvergeBudget time.Duration
}

// ChaosResult is the outcome of one hierarchy chaos run.
type ChaosResult struct {
	chaos.Recorder
	// Establishes counts committed cross-pod establishments.
	Establishes uint64
	// Grants and Served count the broker's issued grants and completed
	// exchanges.
	Grants, Served uint64
	// Refusals counts typed broker refusals.
	Refusals uint64
	// ForgedDropped and TornDropped count rejected injected frames.
	ForgedDropped, TornDropped uint64
	// Deferred and Flushed count rollovers queued in the degraded
	// window and completed after heal.
	Deferred, Flushed int
	// ReconvergeTime spans the heal (or election) to full convergence.
	ReconvergeTime time.Duration
	// FinalEpoch is the global fencing epoch at the end of the run.
	FinalEpoch uint64
}

type chaosHarness struct {
	*chaos.Recorder
	o   ChaosOptions
	res *ChaosResult
	rng chaos.Stream
	h   *Hierarchy
	// shadow mirrors every committed lat-register write per switch.
	shadow map[string][]uint64
}

// counter reads a shared observer metric.
func (c *chaosHarness) counter(name string) uint64 {
	return c.h.Ob.Metrics.Counter(name).Load()
}

// RunChaos executes one deterministic hierarchy chaos run.
func RunChaos(o ChaosOptions) (*ChaosResult, error) {
	switch o.Scenario {
	case ScenarioWANPartition, ScenarioGlobalKill:
	default:
		return nil, fmt.Errorf("hierarchy: unknown chaos scenario %q", o.Scenario)
	}
	if o.Pods == 0 {
		o.Pods = 4
	}
	if o.ReconvergeBudget == 0 {
		o.ReconvergeBudget = 250 * time.Millisecond
	}
	h, err := Build(Config{Seed: o.Seed, Pods: o.Pods})
	if err != nil {
		return nil, err
	}
	res := &ChaosResult{Recorder: chaos.NewRecorder(h.Sim)}
	c := &chaosHarness{
		Recorder: &res.Recorder,
		o:        o,
		res:      res,
		rng:      chaos.NewStream(o.Seed ^ 0x1E12A1C41),
		h:        h,
		shadow:   map[string][]uint64{},
	}
	for _, n := range h.SwitchNames() {
		c.shadow[n] = make([]uint64, h.cfg.LatEntries)
	}
	if err := h.Bootstrap(); err != nil {
		return nil, err
	}
	if err := c.baseline(); err != nil {
		return c.res, err
	}
	switch o.Scenario {
	case ScenarioWANPartition:
		c.wanPartition()
	case ScenarioGlobalKill:
		c.globalKill()
	}
	c.finalChecks()
	return c.res, nil
}

// baseline establishes every cross link and lands one seeded write wave
// through each pod's active.
func (c *chaosHarness) baseline() error {
	if err := c.h.EstablishAllCross(); err != nil {
		return fmt.Errorf("hierarchy chaos: baseline establish: %w", err)
	}
	c.Tracef("baseline: %d pods, %d switches, %d cross links established",
		len(c.h.Pods), len(c.h.SwitchNames()), len(c.h.CrossLinks()))
	c.sampleActives("baseline")
	c.loadAllPods("baseline")
	c.checkConverged("baseline")
	return nil
}

// loadAllPods lands a seeded write wave through every pod's active,
// tracking shadows.
func (c *chaosHarness) loadAllPods(label string) {
	for _, p := range c.h.Pods {
		act := p.active()
		if act == nil {
			c.Violatef("%s: pod %d has no active for load", label, p.ID)
			continue
		}
		c.loadPod(label, p)
	}
}

// loadPod lands writes on every switch the pod owns.
func (c *chaosHarness) loadPod(label string, p *Pod) {
	n := 0
	for _, sw := range p.active().Controller().SwitchNames() {
		idx := uint32(c.rng.Intn(c.h.cfg.LatEntries - 1))
		v := c.rng.Next() % 0xFFFF
		if _, err := p.active().Controller().WriteRegister(sw, "lat", idx, v); err != nil {
			c.Violatef("%s: pod %d write %s lat[%d]: %v", label, p.ID, sw, idx, err)
			return
		}
		c.shadow[sw][idx] = v
		n++
	}
	c.Tracef("%s: pod %d landed %d writes", label, p.ID, n)
}

// sampleActives asserts at most one fenced active per tier right now.
func (c *chaosHarness) sampleActives(label string) {
	c.AtMostOneActive(label+": tier global", c.h.Global.Group.Replicas())
	for _, p := range c.h.Pods {
		c.AtMostOneActive(label+": tier "+p.Name, p.Group.Replicas())
	}
	c.Tracef("%s: active sample clean", label)
}

// checkConverged asserts every cross link sits on one committed key.
func (c *chaosHarness) checkConverged(label string) bool {
	ok := true
	for i := range c.h.CrossLinks() {
		cl := &c.h.CrossLinks()[i]
		va, vb, err := c.h.CrossLinkVersions(cl)
		if err != nil {
			c.Violatef("%s: %s telemetry: %v", label, cl.Label, err)
			ok = false
			continue
		}
		if va != vb {
			c.Violatef("%s: %s half-rolled at %d/%d", label, cl.Label, va, vb)
			ok = false
			continue
		}
		ka, kb, err := c.h.CrossLinkKeys(cl)
		if err != nil || ka == 0 || ka != kb {
			c.Violatef("%s: %s keys disagree: %#x/%#x (%v)", label, cl.Label, ka, kb, err)
			ok = false
		}
	}
	if ok {
		c.Tracef("%s: all %d cross links on one committed key", label, len(c.h.CrossLinks()))
	}
	return ok
}

// converged reports convergence without recording violations (used to
// poll during re-convergence).
func (c *chaosHarness) converged() bool {
	for i := range c.h.CrossLinks() {
		cl := &c.h.CrossLinks()[i]
		va, vb, err := c.h.CrossLinkVersions(cl)
		if err != nil || va != vb {
			return false
		}
	}
	return true
}

// wanPartition: forgery sweep, latency spikes, asymmetric partition,
// degraded service, heal, bounded re-convergence.
func (c *chaosHarness) wanPartition() {
	victim := c.h.Pod(0)
	spiked := c.h.Pod(1)

	// Phase 1: forgery sweep against the victim's downlink. Every
	// hub->pod frame is re-signed under an attacker key; nothing may
	// apply, service must resume once the attacker leaves.
	link := c.h.WANLink(0)
	forged := 0
	_ = link.SetTap("wan-pod0", func(data []byte) []byte {
		f, err := Decode(data)
		if err != nil {
			return data
		}
		forged++
		b, _ := (&Frame{Type: f.Type, Pod: f.Pod, Seq: f.Seq, Epoch: f.Epoch + 7,
			Grant: f.Grant + 13, PK: f.PK ^ 0xF0F0, Salt: f.Salt, Ver: f.Ver,
			A: f.A, PA: f.PA, B: f.B, PB: f.PB}).Encode(0xA77AC4E2)
		return b
	})
	cl := firstCross(c.h, victim.ID)
	before := victim.CrossState(cl.Label)
	if err := victim.EstablishCross(cl); err == nil {
		c.Violatef("forgery sweep: establish succeeded through forged replies")
	}
	if victim.CrossState(cl.Label) != before {
		c.Violatef("forgery sweep: forged frames moved committed state")
	}
	if forged == 0 {
		c.Violatef("forgery sweep: tap never fired")
	}
	_ = link.SetTap("wan-pod0", nil)
	c.Tracef("forgery sweep: %d forged frames injected, all dropped", forged)
	c.sampleActives("forgery-sweep")

	// Phase 2: torn-frame sweep — random bit flips; CRC must catch all.
	flips := 0
	_ = link.SetTap("wan-pod0", func(data []byte) []byte {
		mut := append([]byte(nil), data...)
		mut[c.rng.Intn(len(mut))] ^= byte(1 << c.rng.Intn(8))
		flips++
		return mut
	})
	if err := victim.EstablishCross(cl); err == nil {
		c.Violatef("torn sweep: establish succeeded through flipped frames")
	}
	_ = link.SetTap("wan-pod0", nil)
	c.Tracef("torn sweep: %d frames flipped, all rejected", flips)

	// The two sweeps left the victim degraded; a clean round clears it
	// and proves the retry path recovers without manual repair.
	if err := victim.EstablishCross(cl); err != nil {
		c.Violatef("post-sweep recovery: %v", err)
	}
	if victim.Degraded() {
		c.Violatef("post-sweep recovery: victim still degraded")
	}
	c.checkConverged("post-sweep")

	// Phase 3: latency spike on another pod's downlink. The bounded
	// retry/backoff schedule rides it out: the reply arrives late, the
	// client is still listening.
	sp := c.h.WANLink(1)
	now := c.h.Sim.Now()
	_ = sp.AddLatencySpike("wan-pod1", now, now+60*time.Millisecond, 5*time.Millisecond)
	cl2 := firstCross(c.h, spiked.ID)
	if err := spiked.EstablishCross(cl2); err != nil {
		c.Violatef("latency spike: establish failed under +5ms spike: %v", err)
	}
	sp.ClearLatencySpikes()
	c.Tracef("latency spike: establish survived +5ms on replies")

	// Phase 4: asymmetric partition — frames INTO the victim pod are
	// lost, its requests still reach the hub. The nastiest half-open
	// failure: relays may install remotely while every reply dies.
	c.h.Net.PartitionAsym(victim.nodeName())
	c.Tracef("partition: asymmetric cut into %s", victim.nodeName())
	if err := victim.EstablishCross(cl); err == nil {
		c.Violatef("partition: establish succeeded across a dead downlink")
	}
	if !victim.Degraded() {
		c.Violatef("partition: victim not degraded after broker loss")
	}
	// Intra-pod service continues on the pod's own lease.
	c.loadPod("partition", victim)
	// Rollovers are deferred, not lost, and not retried into the void.
	if err := victim.RollCross(cl); err == nil {
		c.Violatef("partition: rollover did not defer")
	}
	c.res.Deferred = len(victim.DeferredRollovers())
	if c.res.Deferred == 0 {
		c.Violatef("partition: no deferred rollovers recorded")
	}
	c.sampleActives("partition")

	// Phase 5: heal and re-converge within the budget.
	healed := c.h.Net.Heal()
	healAt := c.h.Sim.Now()
	c.Tracef("heal: %d links restored", healed)
	flushed, err := victim.FlushDeferred()
	if err != nil {
		c.Violatef("heal: flush deferred: %v", err)
	}
	c.res.Flushed = flushed
	// Repair any link the half-open window left interrupted.
	for i := range c.h.CrossLinks() {
		l := &c.h.CrossLinks()[i]
		if va, vb, err := c.h.CrossLinkVersions(l); err == nil && va != vb {
			if err := c.h.Pods[l.Initiator].EstablishCross(l); err != nil {
				c.Violatef("heal: repair %s: %v", l.Label, err)
			}
		}
	}
	c.res.ReconvergeTime = c.h.Sim.Now() - healAt
	if !c.converged() {
		c.Violatef("heal: links still half-rolled after repair pass")
	}
	if c.res.ReconvergeTime > c.o.ReconvergeBudget {
		c.Violatef("heal: re-convergence took %v, budget %v", c.res.ReconvergeTime, c.o.ReconvergeBudget)
	}
	if victim.Degraded() {
		c.Violatef("heal: victim still degraded after flush")
	}
	c.Tracef("heal: re-converged in %v (budget %v), %d deferred flushed",
		c.res.ReconvergeTime, c.o.ReconvergeBudget, flushed)
	c.loadAllPods("aftermath")
	c.sampleActives("aftermath")
}

// globalKill: the broker's active dies; grants refuse until the global
// group elects a successor at a new fencing epoch.
func (c *chaosHarness) globalKill() {
	pod := c.h.Pod(1)
	cl := firstCross(c.h, pod.ID)
	oldEpoch := pod.CrossState(cl.Label).Epoch

	act := c.h.Global.Group.Active()
	act.Controller().Kill()
	c.Tracef("kill: global active %s dead at epoch %d", act.Name(), oldEpoch)

	// Dark window: zero establishes may commit; refusals are typed.
	estBefore := c.counter("hier.crosspod_establishes")
	for _, p := range c.h.Pods {
		l := firstCross(c.h, p.ID)
		err := p.EstablishCross(l)
		var ref *RefusedError
		if err == nil {
			c.Violatef("dark window: pod %d established without a fenced broker", p.ID)
		} else if !errors.As(err, &ref) || ref.Cause != RefuseUnfenced {
			c.Violatef("dark window: pod %d got %v, want unfenced refusal", p.ID, err)
		}
	}
	if d := c.counter("hier.crosspod_establishes") - estBefore; d != 0 {
		c.Violatef("dark window: %d establishes committed with the broker dead", d)
	}
	c.loadAllPods("dark-window") // local tiers unaffected
	c.sampleActives("dark-window")
	c.Tracef("dark window: all %d pods refused, zero keys issued", len(c.h.Pods))

	// Election: wait out the dead incumbent's lease, promote rank 1.
	electAt := c.h.Sim.Now()
	el, err := c.h.Global.Elect("chaos-global-kill")
	if err != nil {
		c.Violatef("election: %v", err)
		return
	}
	if el.Incumbent {
		c.Violatef("election: dead incumbent returned as winner")
	}
	newEpoch := el.Winner.Epoch()
	if newEpoch <= oldEpoch {
		c.Violatef("election: epoch did not advance (%d -> %d)", oldEpoch, newEpoch)
	}
	c.Tracef("election: %s serving at epoch %d", el.Winner.Name(), newEpoch)

	// Service resumes: roll every cross link under the new epoch.
	for i := range c.h.CrossLinks() {
		l := &c.h.CrossLinks()[i]
		p := c.h.Pods[l.Initiator]
		if err := p.EstablishCross(l); err != nil {
			c.Violatef("post-election: roll %s: %v", l.Label, err)
			continue
		}
		if st := p.CrossState(l.Label); st.Epoch != newEpoch {
			c.Violatef("post-election: %s committed under stale epoch %d (want %d)",
				l.Label, st.Epoch, newEpoch)
		}
	}
	c.res.ReconvergeTime = c.h.Sim.Now() - electAt
	if c.res.ReconvergeTime > c.o.ReconvergeBudget {
		c.Violatef("post-election: re-convergence took %v, budget %v",
			c.res.ReconvergeTime, c.o.ReconvergeBudget)
	}
	c.res.FinalEpoch = newEpoch
	c.checkConverged("post-election")
	c.loadAllPods("aftermath")
	c.sampleActives("aftermath")
}

// finalChecks reconciles audits, metrics, shadows, and the broker
// ledger.
func (c *chaosHarness) finalChecks() {
	c.res.Establishes = c.counter("hier.crosspod_establishes")
	c.res.Grants = c.h.Global.Grants()
	c.res.Served = c.h.Global.Served()
	c.res.Refusals = c.counter("hier.grant_refusals")
	c.res.ForgedDropped = c.counter("hier.forged_dropped") + c.counter("hier.global_forged_dropped")
	c.res.TornDropped = c.counter("hier.torn_dropped") + c.counter("hier.global_torn_dropped")
	if c.res.FinalEpoch == 0 {
		if a := c.h.Global.Group.Active(); a != nil {
			c.res.FinalEpoch = a.Epoch()
		}
	}

	// No cross-pod key without a fenced, audited grant.
	if c.res.Establishes > c.res.Served {
		c.Violatef("final: %d establishes exceed %d served exchanges", c.res.Establishes, c.res.Served)
	}
	grants := c.h.Ob.Audit.ByType(obs.EvBrokerGrant)
	if uint64(len(grants)) != c.res.Grants {
		c.Violatef("final: audit records %d grants, broker ledger %d", len(grants), c.res.Grants)
	}
	epochs := map[uint64]bool{}
	labels := map[string]bool{}
	for _, e := range grants {
		epochs[e.Value] = true
		labels[e.Cause] = true
	}
	for _, p := range c.h.Pods {
		for i := range c.h.CrossLinks() {
			cl := &c.h.CrossLinks()[i]
			if cl.Initiator != p.ID {
				continue
			}
			st := p.CrossState(cl.Label)
			if st.Ver == 0 {
				continue
			}
			if !epochs[st.Epoch] {
				c.Violatef("final: %s committed under unaudited epoch %d", cl.Label, st.Epoch)
			}
			if !labels[cl.Label] {
				c.Violatef("final: %s committed with no audited grant", cl.Label)
			}
		}
	}

	// Audit <-> metric exact reconciliation — grants, degraded transitions
	// and deferred rollovers included (kernel sweep, in table order).
	c.AuditReconciled("final", c.h.Ob)

	// Zero forged ops applied: every data-plane register matches the
	// shadow of committed writes.
	for _, n := range c.h.SwitchNames() {
		for i, want := range c.shadow[n] {
			got, err := c.h.Switch(n).Host.SW.RegisterRead("lat", i)
			if err != nil {
				c.Violatef("final: read %s lat[%d]: %v", n, i, err)
				continue
			}
			if got != want {
				c.Violatef("final: %s lat[%d] = %#x, shadow %#x", n, i, got, want)
			}
		}
	}
	c.Tracef("final: establishes=%d grants=%d served=%d refusals=%d forged=%d torn=%d epoch=%d",
		c.res.Establishes, c.res.Grants, c.res.Served, c.res.Refusals,
		c.res.ForgedDropped, c.res.TornDropped, c.res.FinalEpoch)
}

// firstCross returns the first cross link initiated by the given pod.
func firstCross(h *Hierarchy, pod uint8) *CrossLink {
	for i := range h.cross {
		if h.cross[i].Initiator == pod {
			return &h.cross[i]
		}
	}
	return nil
}
