// Package chaos holds the deterministic fault-injection harnesses for
// the P4Auth control and data planes, and the kernel they share
// (kernel.go: trace recorder, seeded stream, fleet fixture, the named
// invariants, the fire-at-packet-N trigger).
//
// Run, in this file, builds a two-switch fabric over the virtual-time
// simulator, schedules a controller kill or a switch-agent crash at an
// exact control-channel packet count inside a chosen protocol phase (key
// rollover, register write, port-key init), runs the recovery protocol,
// and sweeps the kernel invariants after every recovery. Specific to it:
//
//   - replay floors may reset only on a cold boot, which wipes the keys
//     WITH the floors, so old traffic cannot replay;
//   - keys reconverge: the interrupted operation retried after recovery
//     succeeds, as do rollovers, port-key updates, and authenticated
//     register round-trips on every switch;
//   - journaled register writes are applied exactly once or reported
//     failed — never duplicated, never silently lost.
//
// Every run is driven by a seeded deterministic RNG and the virtual
// clock, and emits a trace of timestamped events. Two runs with equal
// Options must produce bit-for-bit identical traces — that property is
// itself asserted by the test suite, because a chaos bug you cannot
// replay is a chaos bug you cannot fix.
//
// The package lives beside netsim rather than inside it because the
// controller imports netsim; the harness sits one level up and closes
// the loop controller -> netsim -> (chaos).
package chaos

import (
	"fmt"
	"time"

	"p4auth/internal/controller"
	"p4auth/internal/core"
	"p4auth/internal/obs"
	"p4auth/internal/statestore"
)

// Scenario selects the protocol phase the fault lands in.
type Scenario string

const (
	// MidRollover crashes during a LocalKeyUpdate on s1.
	MidRollover Scenario = "rollover"
	// MidRegisterWrite crashes during a journaled WriteRegister on s1.
	MidRegisterWrite Scenario = "regwrite"
	// MidPortKeyInit crashes during PortKeyInit on the s1<->s2 link.
	MidPortKeyInit Scenario = "portinit"
)

// Victim selects what dies.
type Victim string

const (
	// KillController kills the controller process mid-operation; recovery
	// is a rebuilt controller warm-restarting from the durable store.
	KillController Victim = "controller"
	// CrashSwitch crashes the target switch agent mid-operation; recovery
	// is a reboot (warm or cold per Options.WarmDevice) plus ReviveSwitch.
	CrashSwitch Victim = "switch"
	// BackToBack runs a controller kill and then a switch crash in
	// sequence, each mid-operation, with recovery and invariant checks
	// after each — the compound failure the paper's operators actually
	// fear.
	BackToBack Victim = "back-to-back"
)

// Options fully determines a chaos run. Equal Options must produce equal
// traces.
type Options struct {
	// Seed drives every random choice (victim switch, written values,
	// rebuilt-controller key material).
	Seed uint64
	// Scenario is the protocol phase the fault interrupts.
	Scenario Scenario
	// Victim is what crashes.
	Victim Victim
	// CrashAt is the 1-based control-channel packet count (requests and
	// responses share the counter) at which the fault fires. If the
	// interrupted operation uses fewer packets, the fault fires right
	// after it instead — a run always contains its crash.
	CrashAt int
	// WarmDevice reboots a crashed switch from a device snapshot saved
	// at baseline; false models a cold boot to factory state.
	WarmDevice bool
}

// Result is the outcome of a run.
type Result struct {
	Recorder
	// CtlKills and SwCrashes count the faults injected.
	CtlKills, SwCrashes int
	// Warm reports whether the last controller recovery of each switch
	// was warm (no K_seed use).
	Warm map[string]bool
}

type harness struct {
	kernel
	o     Options
	res   *Result
	store *statestore.Mem
	// ob is the run's shared observer: controller generations come and
	// go, but the metrics registry and the audit trail persist across
	// them — the post-run audit sweep needs the whole story.
	ob     *obs.Observer
	c      *controller.Controller
	ctlGen uint64
	// armed fault for the current round
	trig   *trigger
	victim Victim
	target string
}

// Run executes one deterministic chaos run.
func Run(o Options) (*Result, error) {
	if o.CrashAt < 1 {
		return nil, fmt.Errorf("chaos: CrashAt must be >= 1")
	}
	fx, err := NewFixture("s1", "s2")
	if err != nil {
		return nil, err
	}
	res := &Result{Recorder: NewRecorder(fx.Sim), Warm: map[string]bool{}}
	h := &harness{
		kernel: kernel{&res.Recorder, fx, NewStream(o.Seed ^ 0xC4A05AFE)},
		o:      o,
		res:    res,
		store:  statestore.NewMem(),
		ob:     obs.NewObserver(0),
	}
	if err := h.newController(); err != nil {
		return nil, err
	}
	if err := h.baseline(); err != nil {
		return nil, err
	}

	victims := []Victim{o.Victim}
	if o.Victim == BackToBack {
		victims = []Victim{KillController, CrashSwitch}
	}
	for round, v := range victims {
		h.Tracef("round %d: arming %s fault, scenario=%s crashAt=%d",
			round, v, o.Scenario, o.CrashAt)
		target := h.armFault(v)
		h.runArmedOp(round)
		if err := h.recover(v, target); err != nil {
			return h.res, err
		}
		rebooted := ""
		if v == CrashSwitch {
			rebooted = target
		}
		h.checkInvariants(fmt.Sprintf("round %d", round), rebooted)
		h.retryArmedOp(round)
	}
	h.finalExercise()
	h.checkAudit("final")
	return h.res, nil
}

// newController builds (or rebuilds, after a kill) the controller over
// the existing switches and attaches the shared durable store. The key
// material of each incarnation is derived deterministically from the run
// seed and the generation counter.
func (h *harness) newController() error {
	h.ctlGen++
	c, err := h.NewController(h.o.Seed*1000003 + h.ctlGen)
	if err != nil {
		return err
	}
	if err := c.ConnectSwitches("s1", 1, "s2", 1, 5*time.Microsecond); err != nil {
		return err
	}
	if err := c.EnableCrashSafety(h.store); err != nil {
		return err
	}
	c.SetObserver(h.ob)
	h.c = c
	return nil
}

// baseline establishes all keys, seeds some register state, saves the
// device snapshots warm reboots will use, and records the initial replay
// floors.
func (h *harness) baseline() error {
	if _, err := h.c.InitAllKeys(); err != nil {
		return fmt.Errorf("chaos: baseline key init: %w", err)
	}
	for _, n := range h.Names {
		for idx := uint32(0); idx < 3; idx++ {
			v := h.rng.Next() % 0xFFFF
			if _, err := h.c.WriteRegister(n, "lat", idx, v); err != nil {
				return fmt.Errorf("chaos: baseline write: %w", err)
			}
			h.shadow[n][idx] = v
		}
	}
	if h.o.WarmDevice {
		for _, n := range h.Names {
			if err := h.sw[n].SaveState(h.store, "dev/"+n, 1); err != nil {
				return err
			}
		}
	}
	h.floorsMonotone("baseline")
	h.Tracef("baseline established, warmDevice=%v", h.o.WarmDevice)
	h.forgerySweep("baseline", true)
	return nil
}

// armFault arms the trigger on the scenario's control channels and
// returns the name of the switch a CrashSwitch fault will hit.
func (h *harness) armFault(v Victim) string {
	target := "s1"
	channels := []string{"s1"}
	if h.o.Scenario == MidPortKeyInit {
		channels = []string{"s1", "s2"}
		target = h.Names[h.rng.Intn(len(h.Names))]
	}
	h.victim, h.target = v, target
	h.trig = armTrigger(h.c, h.o.CrashAt, h.fire, channels...)
	return target
}

// disarm clears all control taps (on a live controller).
func (h *harness) disarm() {
	for _, ch := range h.Names {
		_ = h.c.SetControlTaps(ch, nil, nil)
	}
}

// scenarioOp issues the operation the scenario interrupts.
func (h *harness) scenarioOp() (err error) {
	switch h.o.Scenario {
	case MidRollover:
		_, err = h.c.LocalKeyUpdate("s1")
	case MidRegisterWrite:
		v := h.rng.Next() % 0xFFFF
		if _, err = h.c.WriteRegister("s1", "lat", 4, v); err == nil {
			h.shadow["s1"][4] = v
		}
	case MidPortKeyInit:
		_, err = h.c.PortKeyInit("s1", 1, "s2", 1)
	}
	return err
}

// runArmedOp executes the scenario operation that the armed fault will
// interrupt, then guarantees the fault has fired.
func (h *harness) runArmedOp(round int) {
	h.Tracef("armed op round %d: err=%v", round, h.scenarioOp())
	h.trig.ensure()
}

// fire triggers the armed fault.
func (h *harness) fire(where string) {
	if h.victim == KillController {
		h.res.CtlKills++
		h.Tracef("fault: controller killed %s", where)
		h.c.Kill()
	} else {
		h.res.SwCrashes++
		h.Tracef("fault: switch %s crashed %s", h.target, where)
		h.sw[h.target].Crash()
	}
}

// recover runs the recovery protocol for the given victim.
func (h *harness) recover(v Victim, target string) error {
	if v == KillController {
		if err := h.newController(); err != nil {
			return err
		}
		warm, err := h.c.RecoverAll()
		if err != nil {
			h.Violatef("RecoverAll: %v", err)
		}
		for _, n := range h.Names {
			h.res.Warm[n] = warm[n]
			h.Tracef("recovered controller: %s warm=%v seedUses=%d",
				n, warm[n], h.c.SeedUses(n))
			if warm[n] && h.c.SeedUses(n) != 0 {
				h.Violatef("%s: warm restart used K_seed %d times", n, h.c.SeedUses(n))
			}
		}
		return nil
	}
	// Switch crash: the (live) controller keeps its state; clear the
	// fault taps, reboot the agent, revive.
	h.disarm()
	s := h.sw[target]
	var warm bool
	var err error
	if h.o.WarmDevice {
		warm, err = s.RebootFromStore(h.store, "dev/"+target)
	} else {
		err = s.Reboot(nil)
	}
	if err != nil {
		return fmt.Errorf("chaos: reboot %s: %w", target, err)
	}
	// Any reboot wipes user registers; a cold one also wipes keys and
	// replay floors (old traffic is unverifiable, so that is sound).
	h.shadow[target] = make([]uint64, latEntries)
	if !warm {
		h.floors[target] = nil
	}
	revWarm, err := h.c.ReviveSwitch(target)
	h.Tracef("rebooted %s warmDevice=%v: revive warm=%v err=%v", target, warm, revWarm, err)
	if err != nil {
		h.Violatef("ReviveSwitch(%s): %v", target, err)
	}
	if warm && !revWarm {
		h.Violatef("%s: warm device snapshot but revival fell back to re-seed", target)
	}
	if !warm {
		// Cold boot loses the port keys on this switch; re-establish the
		// link before the invariant sweep expects port traffic to work.
		if _, err := h.c.PortKeyInit("s1", 1, "s2", 1); err != nil {
			h.Violatef("PortKeyInit after cold boot of %s: %v", target, err)
		}
	}
	return nil
}

// retryArmedOp re-issues the interrupted operation — the operator's
// natural next step — and requires it to succeed on a recovered fabric.
func (h *harness) retryArmedOp(round int) {
	if err := h.scenarioOp(); err != nil {
		h.Violatef("retry of interrupted %s op after recovery round %d: %v",
			h.o.Scenario, round, err)
	} else {
		h.Tracef("retried %s op round %d: ok", h.o.Scenario, round)
	}
}

// checkInvariants is the post-recovery sweep.
func (h *harness) checkInvariants(label, rebooted string) {
	// 1. The journal holds no dangling intents, on any switch.
	for i, n := range h.noDanglingIntents(label, h.c) {
		h.Tracef("%s: %s journal entries=%d", label, h.Names[i], n)
	}
	// 2. Register-write exactly-once: the interrupted write's slot holds
	// a value the harness actually asked for (its shadow, or — when the
	// journal replay re-drove or confirmed the in-flight value — that
	// value). It must never hold anything else.
	if h.o.Scenario == MidRegisterWrite && rebooted == "" {
		got, _, err := h.c.ReadRegister("s1", "lat", 4)
		if err != nil {
			h.Violatef("%s: read of journaled slot: %v", label, err)
		} else {
			h.Tracef("%s: journaled slot lat[4]=%d", label, got)
			h.shadow["s1"][4] = got // settled by recovery; adopt it
		}
	}
	// 3. Replay floors never regress while keys survive.
	h.floorsMonotone(label)
	// 4. Forgery still bounces off every switch.
	h.forgerySweep(label, true)
	// 5. The audit log explains everything the metrics counted.
	h.checkAudit(label)
}

// finalExercise proves full reconvergence: rollovers, port-key update,
// authenticated round-trips on every switch, port slots in agreement.
func (h *harness) finalExercise() {
	h.disarm()
	for _, n := range h.Names {
		if _, err := h.c.LocalKeyUpdate(n); err != nil {
			h.Violatef("final rollover on %s: %v", n, err)
		}
	}
	if _, err := h.c.PortKeyUpdate("s1", 1); err != nil {
		h.Violatef("final port-key update: %v", err)
	}
	for _, n := range h.Names {
		for idx := uint32(0); idx < 3; idx++ {
			v := h.rng.Next() % 0xFFFF
			if _, err := h.c.WriteRegister(n, "lat", idx, v); err != nil {
				h.Violatef("final write %s lat[%d]: %v", n, idx, err)
				continue
			}
			h.shadow[n][idx] = v
			got, _, err := h.c.ReadRegister(n, "lat", idx)
			if err != nil {
				h.Violatef("final read %s lat[%d]: %v", n, idx, err)
			} else if got != v {
				h.Violatef("final round-trip %s lat[%d]: wrote %d read %d", n, idx, v, got)
			}
		}
	}
	h.checkPortSync()
	h.forgerySweep("final", true)
	for _, n := range h.Names {
		h.Tracef("final: %s floors=%v shadow=%v", n, h.readFloors(n), h.shadow[n])
	}
}

// checkAudit reconciles the metrics against the audit trail (kernel
// sweep) and traces the counts this harness moves.
func (h *harness) checkAudit(label string) {
	h.AuditReconciled(label, h.ob)
	m := h.ob.Metrics
	h.Tracef("%s: audit reconciled: floor_bumps=%d write_dropped=%d events=%d", label,
		m.Counter("ctl.floor_bumps").Load(), m.Counter("ctl.write_dropped").Load(), h.ob.Audit.Len())
}

// checkPortSync requires both ends of the s1<->s2 link to agree on the
// port slot's install counter and active key.
func (h *harness) checkPortSync() {
	a, b := h.sw["s1"].Host.SW, h.sw["s2"].Host.SW
	verA, errA := a.RegisterRead(core.RegVer, 1)
	verB, errB := b.RegisterRead(core.RegVer, 1)
	if errA != nil || errB != nil {
		h.Violatef("port ver read: %v / %v", errA, errB)
		return
	}
	if verA != verB {
		h.Violatef("port install counters diverged: s1=%d s2=%d", verA, verB)
		return
	}
	reg := core.RegKeysV0
	if verA&1 == 1 {
		reg = core.RegKeysV1
	}
	keyA, _ := a.RegisterRead(reg, 1)
	keyB, _ := b.RegisterRead(reg, 1)
	if keyA != keyB || keyA == 0 {
		h.Violatef("port keys diverged at version %d: %#x vs %#x", verA, keyA, keyB)
	}
	h.Tracef("port slot in sync: ver=%d", verA)
}
