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
// Invariants checked on every run:
//
//   - the standby CANNOT acquire before the active's lease expires
//     (the fencing guarantee: one epoch, one writer) and CAN acquire
//     after, within FailoverBudget of virtual time end to end;
//   - promotion is a warm restart on every switch: zero K_seed uses,
//     replay floors monotone across the handoff (lease-bumped, never
//     reset);
//   - every write the deposed active attempts after supersession is
//     refused by the fence — counted, audited, and absent from device
//     state (checked value by value against the shadow);
//   - forged writes (garbage-key signatures injected on-path) are never
//     applied, before, during, or after the failover window;
//   - no dangling journal intents survive the handoff;
//   - the audit trail reconciles exactly: ctl.write_dropped and
//     ctl.floor_bumps against their event counts, ha.fenced_writes +
//     ha.fenced_persists against EvFencedWrite, ha.failovers against
//     EvFailover (exactly two: bootstrap + promotion);
//   - two runs with equal HAOptions produce bit-identical traces.
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
	"p4auth/internal/core"
	"p4auth/internal/crypto"
	"p4auth/internal/deploy"
	"p4auth/internal/ha"
	"p4auth/internal/netsim"
	"p4auth/internal/obs"
	"p4auth/internal/pisa"
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
	// Trace is the deterministic event log.
	Trace []string
	// Violations lists every invariant breach; empty means clean.
	Violations []string
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
	o   HAOptions
	res *HAResult
	rng rng
	sim *netsim.Sim
	st  *statestore.Mem
	ob  *obs.Observer

	names  []string
	sw     map[string]*deploy.Switch
	shadow map[string][]uint64
	floors map[string][]uint64

	a, b *ha.Replica
	ss   *controller.ShardSet

	tapN  int
	fired bool
}

func (h *haHarness) trace(format string, args ...interface{}) {
	h.res.Trace = append(h.res.Trace,
		fmt.Sprintf("t=%-12v ", h.sim.Now())+fmt.Sprintf(format, args...))
}

func (h *haHarness) violate(format string, args ...interface{}) {
	v := fmt.Sprintf(format, args...)
	h.res.Violations = append(h.res.Violations, v)
	h.trace("VIOLATION: %s", v)
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
	h := &haHarness{
		o:      o,
		res:    &HAResult{Switches: o.Switches, WarmAll: true},
		rng:    rng{s: o.Seed ^ 0x4AC0FFEE},
		sim:    netsim.NewSim(),
		st:     statestore.NewMem(),
		ob:     obs.NewObserver(0),
		sw:     map[string]*deploy.Switch{},
		shadow: map[string][]uint64{},
		floors: map[string][]uint64{},
	}
	for i := 0; i < o.Switches; i++ {
		name := fmt.Sprintf("s%02d", i)
		s, err := deploy.Build(deploy.SwitchSpec{
			Name:  name,
			Ports: 4,
			Registers: []*pisa.RegisterDef{
				{Name: "lat", Width: 32, Entries: latEntries},
			},
		})
		if err != nil {
			return nil, err
		}
		h.sw[name] = s
		h.names = append(h.names, name)
		h.shadow[name] = make([]uint64, latEntries)
	}
	var err error
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
	c := controller.New(crypto.NewSeededRand(h.o.Seed*1000003 + seed))
	c.SetRetryPolicy(controller.ResilientRetryPolicy())
	c.UseClock(h.sim)
	for _, n := range h.names {
		s := h.sw[n]
		if err := c.Register(n, s.Host, s.Cfg, 50*time.Microsecond); err != nil {
			return nil, err
		}
	}
	if err := c.ConnectSwitches("s00", 1, "s01", 1, 5*time.Microsecond); err != nil {
		return nil, err
	}
	return ha.NewReplica(ha.ReplicaConfig{
		Name:       name,
		Store:      h.st,
		Clock:      h.sim,
		TTL:        h.o.TTL,
		Controller: c,
		Observer:   h.ob,
	})
}

// load submits writesPerSwitch seeded writes to every shard. Shadows are
// updated at submit time; drains that must succeed verify them later.
func (h *haHarness) load(label string) {
	for _, n := range h.names {
		for k := 0; k < h.o.WritesPerSwitch; k++ {
			idx := uint32(h.rng.intn(latEntries - 2)) // keep the forgery + journal slots clear
			v := h.rng.next() % 0xFFFF
			if err := h.ss.Submit(n, controller.RegWrite{Register: "lat", Index: idx, Value: v}); err != nil {
				h.violate("%s: submit %s lat[%d]: %v", label, n, idx, err)
				return
			}
			h.shadow[n][idx] = v
		}
	}
	h.trace("%s: %d writes queued across %d shards", label,
		h.o.WritesPerSwitch*len(h.names), len(h.names))
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
	ss, err := h.a.Controller().NewShardSet(h.names, h.o.Window)
	if err != nil {
		return err
	}
	h.ss = ss
	h.trace("baseline: %d switches sharded, window=%d ttl=%v",
		len(h.names), h.o.Window, h.o.TTL)

	h.load("baseline")
	if err := h.ss.DrainSequential(); err != nil {
		h.violate("baseline drain: %v", err)
	}
	h.verifyShadows("baseline")

	// The standby tails the active's snapshots and WAL; it must observe
	// at least one record per switch before promotion can be warm.
	tailed, err := h.b.TailOnce()
	if err != nil {
		return fmt.Errorf("chaos: standby tail: %w", err)
	}
	if tailed < len(h.names) {
		h.violate("standby tailed %d records, want >= %d", tailed, len(h.names))
	}
	h.trace("baseline: standby tailed %d records", tailed)

	// The standby is fenced: a write through it must be refused before
	// it touches the wire, and counted.
	if _, err := h.b.Controller().WriteRegister(h.names[0], "lat", 0, 1); !errors.Is(err, controller.ErrFenced) {
		h.violate("fenced standby write = %v, want ErrFenced", err)
	} else {
		h.trace("baseline: standby write refused by fence (%s)", ha.FenceCause(err))
	}

	for _, n := range h.names {
		h.floors[n] = h.readHAFloors(n)
	}
	h.forgerySweep("baseline")
	return nil
}

// failover runs the scenario: fault the active mid-rollover under load,
// prove the standby is fenced out until the lease expires, then promote
// it and rebind the shard set — all on the virtual clock.
func (h *haHarness) failover() error {
	// Queue the next wave BEFORE the fault: these writes ride out the
	// failover in the shard queues and must land through the new active.
	h.load("in-flight")

	target := h.names[h.rng.intn(len(h.names))]
	faultAt := h.sim.Now()

	switch h.o.Scenario {
	case HAKill:
		h.armKill(target)
		_, err := h.a.Controller().LocalKeyUpdate(target)
		h.trace("armed rollover on %s: err=%v", target, err)
		if !h.fired {
			h.fire("post-op")
		}
	case HASplitBrain:
		// The active completes the rollover but then stalls: no renewals
		// until after the TTL. Nothing is killed — both replicas live.
		if _, err := h.a.Controller().LocalKeyUpdate(target); err != nil {
			h.violate("pre-stall rollover on %s: %v", target, err)
		}
		h.trace("active stalls after rollover on %s (no renewals)", target)
	}

	// The fencing guarantee, asserted: before the lease expires the
	// standby CANNOT take over, no matter that the active is dead.
	if _, err := h.b.Activate(ha.CausePromoted); !errors.Is(err, ha.ErrLeaseHeld) {
		h.violate("takeover before lease expiry = %v, want ErrLeaseHeld", err)
	} else {
		h.trace("pre-expiry takeover refused: lease held")
	}

	// Detection is lease expiry: advance the virtual clock past the TTL.
	h.sim.Advance(h.o.TTL + time.Millisecond)
	if _, err := h.b.TailOnce(); err != nil {
		h.violate("pre-promotion tail: %v", err)
	}
	warm, _, err := h.b.Promote(ha.CausePromoted)
	if err != nil {
		return fmt.Errorf("chaos: promote: %w", err)
	}
	for _, n := range h.names {
		if !warm[n] {
			h.res.WarmAll = false
			h.violate("%s: promotion recovered cold (fell back to K_seed)", n)
		}
		if u := h.b.Controller().SeedUses(n); u != 0 {
			h.violate("%s: promotion used K_seed %d times", n, u)
		}
	}
	h.res.FailoverTime = h.sim.Now() - faultAt
	h.trace("promoted ctl-b at epoch %d: %d switches warm, failover=%v (budget %v)",
		h.b.Epoch(), len(warm), h.res.FailoverTime, h.o.FailoverBudget)
	if h.res.FailoverTime > h.o.FailoverBudget {
		h.violate("failover took %v, budget %v", h.res.FailoverTime, h.o.FailoverBudget)
	}
	if h.b.Epoch() != 2 {
		h.violate("post-promotion epoch = %d, want 2", h.b.Epoch())
	}

	// The handoff: point every shard at the new active. Queued writes
	// survive and drain below.
	h.ss.Rebind(h.b.Controller())
	h.trace("shard set rebound to ctl-b")
	return nil
}

// armKill installs a counting control tap on the rollover target that
// kills the active controller at packet CrashAt.
func (h *haHarness) armKill(target string) {
	h.tapN, h.fired = 0, false
	tap := func(b []byte) []byte {
		h.tapN++
		if !h.fired && h.tapN == h.o.CrashAt {
			h.fire(fmt.Sprintf("at packet %d", h.tapN))
			return nil // the packet carrying the fault dies with it
		}
		return b
	}
	if err := h.a.Controller().SetControlTaps(target, tap, tap); err != nil {
		panic(err) // harness topology bug
	}
}

// fire kills the active controller.
func (h *haHarness) fire(where string) {
	h.fired = true
	h.trace("fault: active controller killed %s", where)
	h.a.Controller().Kill()
}

// aftermath drains the in-flight queues through the new active, retries
// the interrupted rollover, drives the deposed active into the fence,
// and lands a final wave.
func (h *haHarness) aftermath() {
	// In-flight writes queued before the fault must land now.
	if err := h.ss.DrainSequential(); err != nil {
		h.violate("post-failover drain: %v", err)
	}
	h.verifyShadows("post-failover")

	// The interrupted (or stalled-past) rollover retried through the new
	// active must succeed — keys reconverge under the new epoch.
	for _, n := range []string{h.names[0], h.names[len(h.names)-1]} {
		if _, err := h.b.Controller().LocalKeyUpdate(n); err != nil {
			h.violate("post-failover rollover on %s: %v", n, err)
		}
	}
	h.trace("post-failover rollovers ok")

	// The deposed active: every write it attempts is refused by the
	// fence and leaves no trace in device state. In the kill scenario
	// the process is dead (ErrKilled) — fencing still names the refusal.
	// In split-brain it is alive and fully fenced, the dangerous case.
	deposed := 0
	for i := 0; i < 3; i++ {
		n := h.names[h.rng.intn(len(h.names))]
		idx := uint32(h.rng.intn(latEntries - 2))
		before := h.shadow[n][idx]
		_, err := h.a.Controller().WriteRegister(n, "lat", idx, 0x666)
		switch {
		case errors.Is(err, controller.ErrFenced):
			deposed++
			h.trace("deposed write %s lat[%d] refused by fence", n, idx)
		case h.o.Scenario == HAKill && errors.Is(err, controller.ErrKilled):
			h.trace("deposed write %s lat[%d] refused (dead)", n, idx)
		default:
			h.violate("deposed write %s lat[%d] = %v, want fenced/killed refusal", n, idx, err)
		}
		got, _, rerr := h.b.Controller().ReadRegister(n, "lat", idx)
		if rerr != nil {
			h.violate("read-back of deposed slot %s lat[%d]: %v", n, idx, rerr)
		} else if got != before {
			h.violate("STALE WRITE APPLIED: %s lat[%d] %d -> %d past the fence",
				n, idx, before, got)
		}
	}
	if cause := ha.FenceCause(h.a.Fence()); cause != ha.CauseDeposed {
		h.violate("deposed active fence cause = %q, want %q", cause, ha.CauseDeposed)
	}
	if h.o.Scenario == HASplitBrain {
		if deposed != 3 {
			h.violate("alive deposed active: %d/3 writes fence-refused", deposed)
		}
		// A renewal attempt must fail too — and once the replica has seen
		// its own deposition, it drops the stale grant for good.
		if err := h.a.Renew(); !errors.Is(err, ha.ErrDeposed) && !errors.Is(err, ha.ErrNotActive) {
			h.violate("deposed renew = %v, want ErrDeposed", err)
		} else {
			h.trace("deposed renewal refused, stale grant dropped")
		}
	}

	// Final wave through the new active.
	h.load("final")
	if err := h.ss.DrainSequential(); err != nil {
		h.violate("final drain: %v", err)
	}
	h.verifyShadows("final")
}

// finalChecks is the post-run invariant sweep.
func (h *haHarness) finalChecks() {
	// Replay floors monotone across the whole run, every switch, every
	// slot: promotion restores them lease-bumped, never lower.
	for _, n := range h.names {
		cur := h.readHAFloors(n)
		old := h.floors[n]
		for i := range old {
			if i < len(cur) && cur[i] < old[i] {
				h.violate("%s: replay floor %d regressed %d -> %d across failover",
					n, i, old[i], cur[i])
			}
		}
		h.floors[n] = cur
	}

	// No dangling journal intents anywhere in the fleet.
	for _, n := range h.names {
		entries, err := h.b.Controller().JournalEntries(n)
		if err != nil {
			h.violate("%s: JournalEntries: %v", n, err)
			continue
		}
		for _, e := range entries {
			if e.State == core.WriteIntent {
				h.violate("%s: dangling journal intent after failover: %s", n, e.Dump())
			}
		}
	}

	h.forgerySweep("final")

	// Audit reconciliation across both replicas and the whole run.
	m, a := h.ob.Metrics, h.ob.Audit
	if a.Evicted() > 0 {
		h.violate("audit ring evicted %d events", a.Evicted())
	}
	if drops, n := m.Counter("ctl.write_dropped").Load(), uint64(len(a.ByType(obs.EvWriteDropped))); drops != n {
		h.violate("%d dropped writes counted, %d audited", drops, n)
	}
	if bumps, n := m.Counter("ctl.floor_bumps").Load(), uint64(len(a.ByType(obs.EvFloorBump))); bumps != n {
		h.violate("%d floor bumps counted, %d audited", bumps, n)
	}
	h.res.FencedAttempts = m.Counter("ha.fenced_writes").Load() + m.Counter("ha.fenced_persists").Load()
	if n := uint64(len(a.ByType(obs.EvFencedWrite))); n != h.res.FencedAttempts {
		h.violate("%d fencing refusals counted, %d audited", h.res.FencedAttempts, n)
	}
	if h.res.FencedAttempts == 0 {
		h.violate("run produced no fencing refusals — the scenario did not bite")
	}
	failovers := m.Counter("ha.failovers").Load()
	if n := uint64(len(a.ByType(obs.EvFailover))); failovers != n || failovers != 2 {
		h.violate("failovers = %d, audited %d, want exactly 2 (bootstrap + promotion)", failovers, n)
	}
	for _, e := range a.ByType(obs.EvFencedWrite) {
		if e.Cause == "" {
			h.violate("fenced-write audit event #%d (%s) names no cause", e.ID, e.Actor)
		}
	}

	h.res.Epoch = h.b.Epoch()
	tot, _ := h.ss.FleetTotals()
	h.res.Landed = tot.Landed
	if tot.Landed == 0 {
		h.violate("no shard writes landed at all")
	}
	h.trace("done: landed=%d failed=%d fenced=%d failover=%v epoch=%d violations=%d",
		tot.Landed, tot.Failed, h.res.FencedAttempts, h.res.FailoverTime,
		h.res.Epoch, len(h.res.Violations))
}

// verifyShadows reads every shadowed slot back through the currently
// active replica and requires device state to match.
func (h *haHarness) verifyShadows(label string) {
	c := h.a.Controller()
	if h.b.IsActive() {
		c = h.b.Controller()
	}
	for _, n := range h.names {
		for idx := 0; idx < latEntries-2; idx++ {
			want := h.shadow[n][idx]
			if want == 0 {
				continue
			}
			got, _, err := c.ReadRegister(n, "lat", uint32(idx))
			if err != nil {
				h.violate("%s: read %s lat[%d]: %v", label, n, idx, err)
				return
			}
			if got != want {
				h.violate("%s: %s lat[%d] = %d, want %d", label, n, idx, got, want)
			}
		}
	}
	h.trace("%s: fleet state verified against shadow", label)
}

// forgerySweep injects a garbage-key signed write into every switch and
// asserts nothing moved (shared probe; see forgery.go).
func (h *haHarness) forgerySweep(label string) {
	sweepForgeries(label, h.names, h.sw, &h.rng, h.violate, h.trace)
}

// readHAFloors returns the full RegSeq file of a switch.
func (h *haHarness) readHAFloors(n string) []uint64 {
	var out []uint64
	sw := h.sw[n].Host.SW
	for i := 0; i < 64; i++ {
		v, err := sw.RegisterRead(core.RegSeq, i)
		if err != nil {
			break
		}
		out = append(out, v)
	}
	return out
}
