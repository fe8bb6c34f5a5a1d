package chaos

// HA chaos: seeded controller-failover runs against the sharded control
// plane (internal/ha + controller.ShardSet). Where Run exercises crash
// recovery of a single controller and RunFabric exercises data-plane
// link supervision, RunHA exercises the active/standby pair: a fleet of
// 64+ switches is driven through per-switch shard queues while the
// active controller is killed mid-rollover (or stalls past its lease),
// and the standby must take over by epoch-fenced lease acquisition —
// warm, bounded, and without ever letting the deposed active's signed
// writes land.
//
// On top of the kernel invariants (kernel.go), specific to this harness:
//
//   - the standby CANNOT acquire before the active's lease expires
//     (the fencing guarantee: one epoch, one writer) and CAN acquire
//     after, within FailoverBudget of virtual time end to end;
//   - queued shard writes survive the handoff and land through the new
//     active;
//   - exactly two failovers are counted (bootstrap + promotion), and the
//     run ends at epoch 2.
//
// The run is single-threaded and scripted: concurrency of the sharded
// plane is covered by the -race stress tests (internal/ha,
// internal/controller); the chaos harness trades goroutines for a
// deterministic, replayable fault schedule.

import (
	"errors"
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/ha"
	"p4auth/internal/obs"
	"p4auth/internal/statestore"
)

// HAScenario selects how the active controller fails.
type HAScenario string

const (
	// HAKill kills the active controller at an exact control-channel
	// packet count inside a local key rollover, with shard queues loaded.
	// The standby detects the death by lease expiry and promotes.
	HAKill HAScenario = "kill-active"
	// HASplitBrain keeps the active alive but stalls its renewals past
	// the TTL (GC pause, partition): the standby promotes at a higher
	// epoch while the deposed active keeps trying to write.
	HASplitBrain HAScenario = "split-brain"
)

// HAOptions fully determines an HA chaos run. Equal options must produce
// equal traces.
type HAOptions struct {
	// Seed drives every random choice (rollover victim, written values,
	// forged-key material).
	Seed uint64
	// Switches is the fleet size (default 64, minimum 2).
	Switches int
	// Window is the shard pipeline window (default 8).
	Window int
	// WritesPerSwitch is the per-phase write load per shard (default 3).
	WritesPerSwitch int
	// CrashAt is the 1-based control-channel packet count inside the
	// armed rollover at which an HAKill fires (default 3). If the
	// rollover uses fewer packets the kill fires right after it.
	CrashAt int
	// Scenario is the failure mode.
	Scenario HAScenario
	// TTL is the lease validity window in virtual time (default 5ms);
	// it bounds how long a dead active goes unnoticed.
	TTL time.Duration
	// FailoverBudget bounds, in virtual time, the span from the fault to
	// the standby serving. The default is TTL + 2ms + 5ms per switch:
	// detection is lease expiry (TTL), and the warm restart is linear in
	// fleet size (resync + floor-heal retries per switch), so the bound
	// scales with the fleet instead of silently loosening.
	FailoverBudget time.Duration
}

// HAResult is the outcome of one HA chaos run.
type HAResult struct {
	Recorder
	// Switches is the resolved fleet size.
	Switches int
	// FailoverTime is the virtual-time span from the fault to the
	// standby holding the lease with every switch warm-recovered.
	FailoverTime time.Duration
	// FencedAttempts counts refused writes+persists of fenced replicas
	// (ha.fenced_writes + ha.fenced_persists at the end of the run).
	FencedAttempts uint64
	// Landed is the fleet-wide count of shard writes confirmed applied.
	Landed int
	// WarmAll reports whether promotion recovered every switch warm.
	WarmAll bool
	// Epoch is the fencing epoch after the failover (2: bootstrap grant
	// plus one takeover).
	Epoch uint64
}

// HA-run defaults.
const (
	haDefaultSwitches = 64
	haDefaultWindow   = 8
	haDefaultWrites   = 3
	haDefaultCrashAt  = 3
	haDefaultTTL      = 5 * time.Millisecond
)

type haHarness struct {
	kernel
	o   HAOptions
	res *HAResult
	st  *statestore.Mem
	ob  *obs.Observer

	a, b *ha.Replica
	ss   *controller.ShardSet
}

// RunHA executes one deterministic HA chaos run.
func RunHA(o HAOptions) (*HAResult, error) {
	switch o.Scenario {
	case HAKill, HASplitBrain:
	default:
		return nil, fmt.Errorf("chaos: unknown HA scenario %q", o.Scenario)
	}
	if o.Switches == 0 {
		o.Switches = haDefaultSwitches
	}
	if o.Switches < 2 {
		return nil, fmt.Errorf("chaos: HA run needs >= 2 switches, got %d", o.Switches)
	}
	if o.Window == 0 {
		o.Window = haDefaultWindow
	}
	if o.WritesPerSwitch == 0 {
		o.WritesPerSwitch = haDefaultWrites
	}
	if o.CrashAt == 0 {
		o.CrashAt = haDefaultCrashAt
	}
	if o.TTL == 0 {
		o.TTL = haDefaultTTL
	}
	if o.FailoverBudget == 0 {
		o.FailoverBudget = o.TTL + 2*time.Millisecond +
			time.Duration(o.Switches)*5*time.Millisecond
	}
	fx, err := NewFixture(FleetNames(o.Switches)...)
	if err != nil {
		return nil, err
	}
	res := &HAResult{Recorder: NewRecorder(fx.Sim), Switches: o.Switches, WarmAll: true}
	h := &haHarness{
		kernel: kernel{&res.Recorder, fx, NewStream(o.Seed ^ 0x4AC0FFEE)},
		o:      o,
		res:    res,
		st:     statestore.NewMem(),
		ob:     obs.NewObserver(0),
	}
	if h.a, err = h.newReplica("ctl-a", 101); err != nil {
		return nil, err
	}
	if h.b, err = h.newReplica("ctl-b", 202); err != nil {
		return nil, err
	}

	if err := h.baseline(); err != nil {
		return h.res, err
	}
	if err := h.failover(); err != nil {
		return h.res, err
	}
	h.aftermath()
	h.finalChecks()
	return h.res, nil
}

// newReplica builds one fenced replica over the shared store, simulator
// clock, and observer, with the whole fleet registered and the single
// s00<->s01 adjacency connected. The replica installs the send fence and
// the fenced crash-safety store itself.
func (h *haHarness) newReplica(name string, seed uint64) (*ha.Replica, error) {
	c, err := h.NewController(h.o.Seed*1000003 + seed)
	if err != nil {
		return nil, err
	}
	if err := c.ConnectSwitches("s00", 1, "s01", 1, 5*time.Microsecond); err != nil {
		return nil, err
	}
	return ha.NewReplica(ha.ReplicaConfig{
		Name:       name,
		Store:      h.st,
		Clock:      h.Sim,
		TTL:        h.o.TTL,
		Controller: c,
		Observer:   h.ob,
	})
}

// load submits writesPerSwitch seeded writes to every shard. Shadows are
// updated at submit time; drains that must succeed verify them later.
func (h *haHarness) load(label string) {
	for _, n := range h.Names {
		for k := 0; k < h.o.WritesPerSwitch; k++ {
			idx := uint32(h.rng.Intn(latEntries - 2)) // keep the forgery + journal slots clear
			v := h.rng.Next() % 0xFFFF
			if err := h.ss.Submit(n, controller.RegWrite{Register: "lat", Index: idx, Value: v}); err != nil {
				h.Violatef("%s: submit %s lat[%d]: %v", label, n, idx, err)
				return
			}
			h.shadow[n][idx] = v
		}
	}
	h.Tracef("%s: %d writes queued across %d shards", label,
		h.o.WritesPerSwitch*len(h.Names), len(h.Names))
}

// baseline bootstraps replica A, initializes the fleet's keys, lands a
// first wave of sharded writes, lets the standby tail, and records the
// starting replay floors.
func (h *haHarness) baseline() error {
	if _, err := h.a.Activate(ha.CauseBootstrap); err != nil {
		return fmt.Errorf("chaos: bootstrap activate: %w", err)
	}
	if _, err := h.a.Controller().InitAllKeys(); err != nil {
		return fmt.Errorf("chaos: baseline key init: %w", err)
	}
	ss, err := h.a.Controller().NewShardSet(h.Names, h.o.Window)
	if err != nil {
		return err
	}
	h.ss = ss
	h.Tracef("baseline: %d switches sharded, window=%d ttl=%v",
		len(h.Names), h.o.Window, h.o.TTL)

	h.load("baseline")
	if err := h.ss.DrainSequential(); err != nil {
		h.Violatef("baseline drain: %v", err)
	}
	h.shadowMatches("baseline", h.a.Controller())

	// The standby tails the active's snapshots and WAL; it must observe
	// at least one record per switch before promotion can be warm.
	tailed, err := h.b.TailOnce()
	if err != nil {
		return fmt.Errorf("chaos: standby tail: %w", err)
	}
	if tailed < len(h.Names) {
		h.Violatef("standby tailed %d records, want >= %d", tailed, len(h.Names))
	}
	h.Tracef("baseline: standby tailed %d records", tailed)

	// The standby is fenced: a write through it must be refused before
	// it touches the wire, and counted.
	if _, err := h.b.Controller().WriteRegister(h.Names[0], "lat", 0, 1); !errors.Is(err, controller.ErrFenced) {
		h.Violatef("fenced standby write = %v, want ErrFenced", err)
	} else {
		h.Tracef("baseline: standby write refused by fence (%s)", ha.FenceCause(err))
	}

	h.floorsMonotone("baseline")
	h.forgerySweep("baseline", false)
	return nil
}

// failover runs the scenario: fault the active mid-rollover under load,
// prove the standby is fenced out until the lease expires, then promote
// it and rebind the shard set — all on the virtual clock.
func (h *haHarness) failover() error {
	// Queue the next wave BEFORE the fault: these writes ride out the
	// failover in the shard queues and must land through the new active.
	h.load("in-flight")

	target := h.Names[h.rng.Intn(len(h.Names))]
	faultAt := h.Sim.Now()

	switch h.o.Scenario {
	case HAKill:
		// The counting tap on the rollover target kills the active at
		// packet CrashAt.
		trig := armTrigger(h.a.Controller(), h.o.CrashAt, func(where string) {
			h.Tracef("fault: active controller killed %s", where)
			h.a.Controller().Kill()
		}, target)
		_, err := h.a.Controller().LocalKeyUpdate(target)
		h.Tracef("armed rollover on %s: err=%v", target, err)
		trig.ensure()
	case HASplitBrain:
		// The active completes the rollover but then stalls: no renewals
		// until after the TTL. Nothing is killed — both replicas live.
		if _, err := h.a.Controller().LocalKeyUpdate(target); err != nil {
			h.Violatef("pre-stall rollover on %s: %v", target, err)
		}
		h.Tracef("active stalls after rollover on %s (no renewals)", target)
	}

	// The fencing guarantee, asserted: before the lease expires the
	// standby CANNOT take over, no matter that the active is dead.
	if _, err := h.b.Activate(ha.CausePromoted); !errors.Is(err, ha.ErrLeaseHeld) {
		h.Violatef("takeover before lease expiry = %v, want ErrLeaseHeld", err)
	} else {
		h.Tracef("pre-expiry takeover refused: lease held")
	}

	// Detection is lease expiry: advance the virtual clock past the TTL.
	h.Sim.Advance(h.o.TTL + time.Millisecond)
	if _, err := h.b.TailOnce(); err != nil {
		h.Violatef("pre-promotion tail: %v", err)
	}
	warm, _, err := h.b.Promote(ha.CausePromoted)
	if err != nil {
		return fmt.Errorf("chaos: promote: %w", err)
	}
	h.res.FailoverTime = h.Sim.Now() - faultAt
	h.res.WarmAll = h.promotedWarm(h.b.Controller(), warm, h.res.FailoverTime, h.o.FailoverBudget)
	h.Tracef("promoted ctl-b at epoch %d: %d switches warm, failover=%v (budget %v)",
		h.b.Epoch(), len(warm), h.res.FailoverTime, h.o.FailoverBudget)
	if h.b.Epoch() != 2 {
		h.Violatef("post-promotion epoch = %d, want 2", h.b.Epoch())
	}

	// The handoff: point every shard at the new active. Queued writes
	// survive and drain below.
	h.ss.Rebind(h.b.Controller())
	h.Tracef("shard set rebound to ctl-b")
	return nil
}

// aftermath drains the in-flight queues through the new active, retries
// the interrupted rollover, drives the deposed active into the fence,
// and lands a final wave.
func (h *haHarness) aftermath() {
	// In-flight writes queued before the fault must land now.
	if err := h.ss.DrainSequential(); err != nil {
		h.Violatef("post-failover drain: %v", err)
	}
	h.shadowMatches("post-failover", h.b.Controller())

	// The interrupted (or stalled-past) rollover retried through the new
	// active must succeed — keys reconverge under the new epoch.
	for _, n := range []string{h.Names[0], h.Names[len(h.Names)-1]} {
		if _, err := h.b.Controller().LocalKeyUpdate(n); err != nil {
			h.Violatef("post-failover rollover on %s: %v", n, err)
		}
	}
	h.Tracef("post-failover rollovers ok")

	// The deposed active: every write it attempts is refused by the
	// fence and leaves no trace in device state. In the kill scenario
	// the process is dead (ErrKilled) — fencing still names the refusal.
	// In split-brain it is alive and fully fenced, the dangerous case.
	deposed := 0
	for i := 0; i < 3; i++ {
		n := h.Names[h.rng.Intn(len(h.Names))]
		idx := uint32(h.rng.Intn(latEntries - 2))
		if h.deposedWriteRefused("deposed write", h.a.Controller(), h.b.Controller(),
			n, idx, h.shadow[n][idx], 0x666) {
			deposed++
		}
	}
	if cause := ha.FenceCause(h.a.Fence()); cause != ha.CauseDeposed {
		h.Violatef("deposed active fence cause = %q, want %q", cause, ha.CauseDeposed)
	}
	if h.o.Scenario == HASplitBrain {
		if deposed != 3 {
			h.Violatef("alive deposed active: %d/3 writes fence-refused", deposed)
		}
		// A renewal attempt must fail too — and once the replica has seen
		// its own deposition, it drops the stale grant for good.
		if err := h.a.Renew(); !errors.Is(err, ha.ErrDeposed) && !errors.Is(err, ha.ErrNotActive) {
			h.Violatef("deposed renew = %v, want ErrDeposed", err)
		} else {
			h.Tracef("deposed renewal refused, stale grant dropped")
		}
	}

	// Final wave through the new active.
	h.load("final")
	if err := h.ss.DrainSequential(); err != nil {
		h.Violatef("final drain: %v", err)
	}
	h.shadowMatches("final", h.b.Controller())
}

// finalChecks is the post-run invariant sweep.
func (h *haHarness) finalChecks() {
	// Replay floors monotone across the whole run, every switch, every
	// slot: promotion restores them lease-bumped, never lower.
	h.floorsMonotone("final")
	h.noDanglingIntents("final", h.b.Controller())
	h.forgerySweep("final", false)

	// Audit reconciliation across both replicas and the whole run.
	h.AuditReconciled("final", h.ob)
	m := h.ob.Metrics
	h.res.FencedAttempts = m.Counter("ha.fenced_writes").Load() + m.Counter("ha.fenced_persists").Load()
	if h.res.FencedAttempts == 0 {
		h.Violatef("run produced no fencing refusals — the scenario did not bite")
	}
	if failovers := m.Counter("ha.failovers").Load(); failovers != 2 {
		h.Violatef("failovers = %d, want exactly 2 (bootstrap + promotion)", failovers)
	}

	h.res.Epoch = h.b.Epoch()
	tot, _ := h.ss.FleetTotals()
	h.res.Landed = tot.Landed
	if tot.Landed == 0 {
		h.Violatef("no shard writes landed at all")
	}
	h.Tracef("done: landed=%d failed=%d fenced=%d failover=%v epoch=%d violations=%d",
		tot.Landed, tot.Failed, h.res.FencedAttempts, h.res.FailoverTime,
		h.res.Epoch, len(h.res.Violations))
}
