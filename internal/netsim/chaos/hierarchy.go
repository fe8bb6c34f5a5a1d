package chaos

// Hierarchy chaos: seeded runs of the hierarchical control plane
// (internal/hierarchy) over the kernel, whose fixture wraps the
// hierarchy's switches. WAN faults (asymmetric partition, forged/torn
// frame injection, latency spikes) hit the per-pod tiers and the global
// key broker, and a global-active kill ends in an election.
// Single-threaded and scripted on the lockstep simulator: equal options
// produce bit-identical traces.
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

	"p4auth/internal/crypto"
	"p4auth/internal/hierarchy"
	"p4auth/internal/obs"
)

// HierarchyScenario selects the hierarchy failure mode.
type HierarchyScenario string

const (
	// HierarchyWANPartition: asymmetric WAN loss against one pod plus
	// latency spikes on another, with forged/torn frame injection before
	// the partition; heal and re-converge.
	HierarchyWANPartition HierarchyScenario = "wanpartition"
	// HierarchyGlobalKill: the global broker's active dies; grants are
	// refused until the broker group elects a successor at a new epoch.
	HierarchyGlobalKill HierarchyScenario = "globalkill"
)

// HierarchyOptions fully determines a hierarchy chaos run.
type HierarchyOptions struct {
	// Seed drives every random choice.
	Seed uint64
	// Pods is the fat-tree k (hierarchy.Build's default 4 when zero).
	Pods int
	// Scenario is the failure mode.
	Scenario HierarchyScenario
}

// HierarchyResult is the outcome of one hierarchy chaos run.
type HierarchyResult struct {
	Recorder
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

// hierarchyScenarios is RunHierarchy's scenario table. Pod counts are
// hierarchy.Build's to check.
var hierarchyScenarios = []struct {
	name   HierarchyScenario
	script func(h *hierarchyHarness)
}{
	{HierarchyWANPartition, (*hierarchyHarness).wanPartition},
	{HierarchyGlobalKill, (*hierarchyHarness).globalKill},
}

// hierarchyHarness runs one hierarchy scenario. The kernel's shadow
// mirrors every committed lat-register write per switch.
type hierarchyHarness struct {
	kernel
	res  *HierarchyResult
	hier *hierarchy.Hierarchy
	// budget bounds each re-convergence: one first-try grant plus one
	// first-try exchange per cross link (hierarchy.ReconvergePerLink).
	// Global-kill re-rolls every link serially (6ms each at any pod
	// count), so a fixed bound fails past some size: 250ms held Pods=4's
	// 12 links, not Pods=6's 45.
	budget time.Duration
}

// newHierarchyHarness wraps a built hierarchy in the kernel.
func newHierarchyHarness(seed uint64, hier *hierarchy.Hierarchy) *hierarchyHarness {
	res := &HierarchyResult{Recorder: NewRecorder(hier.Sim)}
	fx := wrapFixture(hier.Sim, hier.SwitchNames(), hier.Switch)
	return &hierarchyHarness{
		kernel: kernel{&res.Recorder, fx, crypto.NewSeededRand(seed ^ 0x1E12A1C41)},
		res:    res,
		hier:   hier,
		budget: time.Duration(len(hier.CrossLinks())) * hierarchy.ReconvergePerLink,
	}
}

// counter reads a shared observer metric.
func (h *hierarchyHarness) counter(name string) uint64 {
	return h.hier.Ob.Metrics.Counter(name).Load()
}

// RunHierarchy executes one deterministic hierarchy chaos run.
func RunHierarchy(o HierarchyOptions) (*HierarchyResult, error) {
	var script func(h *hierarchyHarness)
	for _, sc := range hierarchyScenarios {
		if sc.name == o.Scenario {
			script = sc.script
		}
	}
	if script == nil {
		return nil, fmt.Errorf("chaos: unknown hierarchy scenario %q", o.Scenario)
	}
	hier, err := hierarchy.Build(hierarchy.Config{Seed: o.Seed, Pods: o.Pods})
	if err != nil {
		return nil, err
	}
	h := newHierarchyHarness(o.Seed, hier)
	if err := hier.Bootstrap(); err != nil {
		return nil, err
	}
	if err := h.baseline(); err != nil {
		return h.res, err
	}
	script(h)
	h.finalChecks()
	return h.res, nil
}

// baseline establishes every cross link and lands one seeded write wave
// through each pod's active.
func (h *hierarchyHarness) baseline() error {
	if err := h.hier.EstablishAllCross(); err != nil {
		return fmt.Errorf("hierarchy chaos: baseline establish: %w", err)
	}
	h.Tracef("baseline: %d pods, %d switches, %d cross links established",
		len(h.hier.Pods), len(h.hier.SwitchNames()), len(h.hier.CrossLinks()))
	h.sampleActives("baseline")
	h.loadAllPods("baseline")
	h.checkConverged("baseline")
	return nil
}

// loadAllPods lands a seeded write wave through every pod's active,
// tracking shadows.
func (h *hierarchyHarness) loadAllPods(label string) {
	for _, p := range h.hier.Pods {
		if p.Active() == nil {
			h.Violatef("%s: pod %d has no active for load", label, p.ID)
			continue
		}
		h.loadPod(label, p)
	}
}

// loadPod lands writes on every switch the pod owns.
func (h *hierarchyHarness) loadPod(label string, p *hierarchy.Pod) {
	n := 0
	for _, sw := range p.Active().Controller().SwitchNames() {
		idx := uint32(intn(h.rng, latEntries-1))
		v := h.rng.Uint64() % 0xFFFF
		if _, err := p.Active().Controller().WriteRegister(sw, "lat", idx, v); err != nil {
			h.Violatef("%s: pod %d write %s lat[%d]: %v", label, p.ID, sw, idx, err)
			return
		}
		h.shadow[sw][idx] = v
		n++
	}
	h.Tracef("%s: pod %d landed %d writes", label, p.ID, n)
}

// sampleActives asserts at most one fenced active per tier right now.
func (h *hierarchyHarness) sampleActives(label string) {
	h.AtMostOneActive(label+": tier global", h.hier.Global.Group.Replicas())
	for _, p := range h.hier.Pods {
		h.AtMostOneActive(label+": tier "+p.Name, p.Group.Replicas())
	}
	h.Tracef("%s: active sample clean", label)
}

// checkConverged asserts every cross link sits on one committed key.
func (h *hierarchyHarness) checkConverged(label string) {
	ok := true
	for _, cl := range h.hier.CrossLinks() {
		va, vb, err := h.hier.CrossLinkVersions(&cl)
		if err != nil {
			h.Violatef("%s: %s telemetry: %v", label, cl.Label, err)
			ok = false
			continue
		}
		if va != vb {
			h.Violatef("%s: %s half-rolled at %d/%d", label, cl.Label, va, vb)
			ok = false
			continue
		}
		ka, kb, err := h.hier.CrossLinkKeys(&cl)
		if err != nil || ka == 0 || ka != kb {
			h.Violatef("%s: %s keys disagree: %#x/%#x (%v)", label, cl.Label, ka, kb, err)
			ok = false
		}
	}
	if ok {
		h.Tracef("%s: all %d cross links on one committed key", label, len(h.hier.CrossLinks()))
	}
}

// converged reports convergence without recording violations (used to
// poll during re-convergence).
func (h *hierarchyHarness) converged() bool {
	for _, cl := range h.hier.CrossLinks() {
		if va, vb, err := h.hier.CrossLinkVersions(&cl); err != nil || va != vb {
			return false
		}
	}
	return true
}

// wanPartition: forgery sweep, latency spikes, asymmetric partition,
// degraded service, heal, bounded re-convergence.
func (h *hierarchyHarness) wanPartition() {
	victim := h.hier.Pod(0)
	spiked := h.hier.Pod(1)

	// Phase 1: forgery sweep against the victim's downlink. Every
	// hub->pod frame is re-signed under an attacker key; nothing may
	// apply, service must resume once the attacker leaves.
	link := h.hier.WANLink(0)
	forged := 0
	_ = link.SetTap("wan-pod0", func(data []byte) []byte {
		f, err := hierarchy.Decode(data)
		if err != nil {
			return data
		}
		forged++
		b, _ := (&hierarchy.Frame{Type: f.Type, Pod: f.Pod, Seq: f.Seq, Epoch: f.Epoch + 7,
			Grant: f.Grant + 13, PK: f.PK ^ 0xF0F0, Salt: f.Salt, Ver: f.Ver,
			A: f.A, PA: f.PA, B: f.B, PB: f.PB}).Encode(0xA77AC4E2)
		return b
	})
	cl := firstCross(h.hier, victim.ID)
	before := victim.CrossState(cl.Label)
	if err := victim.EstablishCross(cl); err == nil {
		h.Violatef("forgery sweep: establish succeeded through forged replies")
	}
	if victim.CrossState(cl.Label) != before {
		h.Violatef("forgery sweep: forged frames moved committed state")
	}
	if forged == 0 {
		h.Violatef("forgery sweep: tap never fired")
	}
	_ = link.SetTap("wan-pod0", nil)
	h.Tracef("forgery sweep: %d forged frames injected, all dropped", forged)
	h.sampleActives("forgery-sweep")

	// Phase 2: torn-frame sweep — random bit flips; CRC must catch all.
	flips := 0
	_ = link.SetTap("wan-pod0", func(data []byte) []byte {
		mut := append([]byte(nil), data...)
		mut[intn(h.rng, len(mut))] ^= byte(1 << intn(h.rng, 8))
		flips++
		return mut
	})
	if err := victim.EstablishCross(cl); err == nil {
		h.Violatef("torn sweep: establish succeeded through flipped frames")
	}
	_ = link.SetTap("wan-pod0", nil)
	h.Tracef("torn sweep: %d frames flipped, all rejected", flips)

	// The two sweeps left the victim degraded; a clean round clears it
	// and proves the retry path recovers without manual repair.
	if err := victim.EstablishCross(cl); err != nil {
		h.Violatef("post-sweep recovery: %v", err)
	}
	if victim.Degraded() {
		h.Violatef("post-sweep recovery: victim still degraded")
	}
	h.checkConverged("post-sweep")

	// Phase 3: latency spike on another pod's downlink. The bounded
	// retry/backoff schedule rides it out: the reply arrives late, the
	// client is still listening.
	sp := h.hier.WANLink(1)
	now := h.hier.Sim.Now()
	_ = sp.AddLatencySpike("wan-pod1", now, now+60*time.Millisecond, 5*time.Millisecond)
	cl2 := firstCross(h.hier, spiked.ID)
	if err := spiked.EstablishCross(cl2); err != nil {
		h.Violatef("latency spike: establish failed under +5ms spike: %v", err)
	}
	sp.ClearLatencySpikes()
	h.Tracef("latency spike: establish survived +5ms on replies")

	// Phase 4: asymmetric partition — frames INTO the victim pod are
	// lost, its requests still reach the hub. The nastiest half-open
	// failure: relays may install remotely while every reply dies.
	h.hier.Net.PartitionAsym(victim.NodeName())
	h.Tracef("partition: asymmetric cut into %s", victim.NodeName())
	if err := victim.EstablishCross(cl); err == nil {
		h.Violatef("partition: establish succeeded across a dead downlink")
	}
	if !victim.Degraded() {
		h.Violatef("partition: victim not degraded after broker loss")
	}
	// Intra-pod service continues on the pod's own lease.
	h.loadPod("partition", victim)
	// Rollovers are deferred, not lost, and not retried into the void.
	if err := victim.RollCross(cl); err == nil {
		h.Violatef("partition: rollover did not defer")
	}
	h.res.Deferred = len(victim.DeferredRollovers())
	if h.res.Deferred == 0 {
		h.Violatef("partition: no deferred rollovers recorded")
	}
	h.sampleActives("partition")

	// Phase 5: heal and re-converge within the budget.
	healed := h.hier.Net.Heal()
	healAt := h.hier.Sim.Now()
	h.Tracef("heal: %d links restored", healed)
	flushed, err := victim.FlushDeferred()
	if err != nil {
		h.Violatef("heal: flush deferred: %v", err)
	}
	h.res.Flushed = flushed
	// Repair any link the half-open window left interrupted.
	for i := range h.hier.CrossLinks() {
		l := &h.hier.CrossLinks()[i]
		if va, vb, err := h.hier.CrossLinkVersions(l); err == nil && va != vb {
			if err := h.hier.Pods[l.Initiator].EstablishCross(l); err != nil {
				h.Violatef("heal: repair %s: %v", l.Label, err)
			}
		}
	}
	h.res.ReconvergeTime = h.hier.Sim.Now() - healAt
	if !h.converged() {
		h.Violatef("heal: links still half-rolled after repair pass")
	}
	if h.res.ReconvergeTime > h.budget {
		h.Violatef("heal: re-convergence took %v, budget %v", h.res.ReconvergeTime, h.budget)
	}
	if victim.Degraded() {
		h.Violatef("heal: victim still degraded after flush")
	}
	h.Tracef("heal: re-converged in %v (budget %v), %d deferred flushed",
		h.res.ReconvergeTime, h.budget, flushed)
	h.loadAllPods("aftermath")
	h.sampleActives("aftermath")
}

// globalKill: the broker's active dies; grants refuse until the global
// group elects a successor at a new fencing epoch.
func (h *hierarchyHarness) globalKill() {
	pod := h.hier.Pod(1)
	cl := firstCross(h.hier, pod.ID)
	oldEpoch := pod.CrossState(cl.Label).Epoch

	act := h.hier.Global.Group.Active()
	act.Controller().Kill()
	h.Tracef("kill: global active %s dead at epoch %d", act.Name(), oldEpoch)

	// Dark window: zero establishes may commit; refusals are typed.
	estBefore := h.counter("hier.crosspod_establishes")
	for _, p := range h.hier.Pods {
		l := firstCross(h.hier, p.ID)
		err := p.EstablishCross(l)
		var ref *hierarchy.RefusedError
		if err == nil {
			h.Violatef("dark window: pod %d established without a fenced broker", p.ID)
		} else if !errors.As(err, &ref) || ref.Cause != hierarchy.RefuseUnfenced {
			h.Violatef("dark window: pod %d got %v, want unfenced refusal", p.ID, err)
		}
	}
	if d := h.counter("hier.crosspod_establishes") - estBefore; d != 0 {
		h.Violatef("dark window: %d establishes committed with the broker dead", d)
	}
	h.loadAllPods("dark-window") // local tiers unaffected
	h.sampleActives("dark-window")
	h.Tracef("dark window: all %d pods refused, zero keys issued", len(h.hier.Pods))

	// Election: wait out the dead incumbent's lease, promote rank 1.
	electAt := h.hier.Sim.Now()
	el, err := h.hier.Global.Elect("chaos-global-kill")
	if err != nil {
		h.Violatef("election: %v", err)
		return
	}
	if el.Incumbent {
		h.Violatef("election: dead incumbent returned as winner")
	}
	newEpoch := el.Winner.Epoch()
	if newEpoch <= oldEpoch {
		h.Violatef("election: epoch did not advance (%d -> %d)", oldEpoch, newEpoch)
	}
	h.Tracef("election: %s serving at epoch %d", el.Winner.Name(), newEpoch)

	// Service resumes: roll every cross link under the new epoch.
	for i := range h.hier.CrossLinks() {
		l := &h.hier.CrossLinks()[i]
		p := h.hier.Pods[l.Initiator]
		if err := p.EstablishCross(l); err != nil {
			h.Violatef("post-election: roll %s: %v", l.Label, err)
			continue
		}
		if st := p.CrossState(l.Label); st.Epoch != newEpoch {
			h.Violatef("post-election: %s committed under stale epoch %d (want %d)",
				l.Label, st.Epoch, newEpoch)
		}
	}
	h.res.ReconvergeTime = h.hier.Sim.Now() - electAt
	if h.res.ReconvergeTime > h.budget {
		h.Violatef("post-election: re-convergence took %v, budget %v",
			h.res.ReconvergeTime, h.budget)
	}
	h.res.FinalEpoch = newEpoch
	h.checkConverged("post-election")
	h.loadAllPods("aftermath")
	h.sampleActives("aftermath")
}

// finalChecks reconciles audits, metrics, shadows, and the broker
// ledger.
func (h *hierarchyHarness) finalChecks() {
	h.res.Establishes = h.counter("hier.crosspod_establishes")
	h.res.Grants = h.hier.Global.Grants()
	h.res.Served = h.hier.Global.Served()
	h.res.Refusals = h.counter("hier.grant_refusals")
	h.res.ForgedDropped = h.counter("hier.forged_dropped") + h.counter("hier.global_forged_dropped")
	h.res.TornDropped = h.counter("hier.torn_dropped") + h.counter("hier.global_torn_dropped")
	if h.res.FinalEpoch == 0 {
		if a := h.hier.Global.Group.Active(); a != nil {
			h.res.FinalEpoch = a.Epoch()
		}
	}

	// No cross-pod key without a fenced, audited grant.
	if h.res.Establishes > h.res.Served {
		h.Violatef("final: %d establishes exceed %d served exchanges", h.res.Establishes, h.res.Served)
	}
	grants := h.hier.Ob.Audit.ByType(obs.EvBrokerGrant)
	if uint64(len(grants)) != h.res.Grants {
		h.Violatef("final: audit records %d grants, broker ledger %d", len(grants), h.res.Grants)
	}
	epochs := map[uint64]bool{}
	labels := map[string]bool{}
	for _, e := range grants {
		epochs[e.Value] = true
		labels[e.Cause] = true
	}
	// Cross links are built in initiator order, so this is pod order.
	for _, cl := range h.hier.CrossLinks() {
		st := h.hier.Pods[cl.Initiator].CrossState(cl.Label)
		if st.Ver == 0 {
			continue
		}
		if !epochs[st.Epoch] {
			h.Violatef("final: %s committed under unaudited epoch %d", cl.Label, st.Epoch)
		}
		if !labels[cl.Label] {
			h.Violatef("final: %s committed with no audited grant", cl.Label)
		}
	}

	// Audit <-> metric exact reconciliation — grants, degraded transitions
	// and deferred rollovers included (kernel sweep, in table order).
	h.AuditReconciled("final", h.hier.Ob)

	// Zero forged ops applied: every data-plane register matches the
	// shadow of committed writes.
	for _, n := range h.Names {
		for i, want := range h.shadow[n] {
			got, err := h.sw[n].Host.SW.RegisterRead("lat", i)
			if err != nil {
				h.Violatef("final: read %s lat[%d]: %v", n, i, err)
				continue
			}
			if got != want {
				h.Violatef("final: %s lat[%d] = %#x, shadow %#x", n, i, got, want)
			}
		}
	}
	h.Tracef("final: establishes=%d grants=%d served=%d refusals=%d forged=%d torn=%d epoch=%d",
		h.res.Establishes, h.res.Grants, h.res.Served, h.res.Refusals,
		h.res.ForgedDropped, h.res.TornDropped, h.res.FinalEpoch)
}

// firstCross returns the first cross link initiated by the given pod.
func firstCross(hier *hierarchy.Hierarchy, pod uint8) *hierarchy.CrossLink {
	links := hier.CrossLinks()
	for i := range links {
		if links[i].Initiator == pod {
			return &links[i]
		}
	}
	return nil
}
